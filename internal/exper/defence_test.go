package exper

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"testing"

	"bolt/internal/attack"
	"bolt/internal/cluster"
	"bolt/internal/core"
	"bolt/internal/defence"
	"bolt/internal/fleet"
	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// Golden seed-42 hashes of the pre-defence suite (every experiment except
// defencesweep), captured from the boltbench output of the tree this PR
// grew from. Pinning them proves two things at once: extracting the
// campaign into internal/attack left the fleet experiment byte-identical,
// and with the defence plane "off" (its experiment excluded) the suite
// renders exactly what it always did. New experiments append after
// existing ones, so these hashes also pin the prefix property: the full
// suite's output must begin with exactly these bytes.
const (
	goldenSuiteStdoutMD5 = "06d9a92127e98c8e5c2ea66c2807da4f"
	goldenSuiteJSONMD5   = "b49c23043faff848bca707214490dc7b"
)

// withoutDefenceSweep returns the experiment list with defencesweep
// removed — the "defence off" suite.
func withoutDefenceSweep() []Experiment {
	var out []Experiment
	for _, e := range All() {
		if e.ID != "defencesweep" {
			out = append(out, e)
		}
	}
	return out
}

// renderStdout renders the experiments exactly the way cmd/boltbench
// writes stdout: reports in order, each through Report.Render.
func renderStdout(t *testing.T, exps []Experiment, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range Run(exps, o) {
		r.Report.Render(&buf)
	}
	return buf.Bytes()
}

// TestSuiteGoldenWithDefenceOff pins the defence-off suite against the
// golden seed-42 hashes at several -parallel levels, in both output
// formats, and checks the full suite (defence on) extends it byte for
// byte.
func TestSuiteGoldenWithDefenceOff(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite at four parallelism levels")
	}
	const seed = 42
	for _, parallel := range []int{1, 2, 4, 8} {
		got := renderStdout(t, withoutDefenceSweep(), Options{Seed: seed, Parallel: parallel})
		if sum := fmt.Sprintf("%x", md5.Sum(got)); sum != goldenSuiteStdoutMD5 {
			t.Fatalf("parallel=%d: defence-off suite stdout md5 = %s, want golden %s",
				parallel, sum, goldenSuiteStdoutMD5)
		}
	}

	results := Run(withoutDefenceSweep(), Options{Seed: seed, Parallel: 4})
	reports := make([]*Report, len(results))
	for i, r := range results {
		reports[i] = r.Report
	}
	var buf bytes.Buffer
	if err := WriteAllJSON(&buf, seed, reports); err != nil {
		t.Fatalf("WriteAllJSON: %v", err)
	}
	if sum := fmt.Sprintf("%x", md5.Sum(buf.Bytes())); sum != goldenSuiteJSONMD5 {
		t.Fatalf("defence-off suite JSON md5 = %s, want golden %s", sum, goldenSuiteJSONMD5)
	}

	// Prefix property: the full suite is the defence-off suite plus
	// appended experiments — earlier bytes must be untouched.
	old := renderStdout(t, withoutDefenceSweep(), Options{Seed: seed, Parallel: 4})
	full := renderStdout(t, All(), Options{Seed: seed, Parallel: 4})
	if !bytes.HasPrefix(full, old) {
		t.Fatal("full suite output no longer extends the defence-off suite byte-for-byte")
	}
}

// TestDefenceSweepParityAcrossWorkers is the defencesweep determinism
// contract: the rendered report must be byte-identical across -epworkers
// (cells fan out on the episode pool) and -shardworkers (each campaign
// ticks on the sharded fleet engine), including widths that do not divide
// the cell or server counts.
func TestDefenceSweepParityAcrossWorkers(t *testing.T) {
	render := func(epworkers, shardworkers int) []byte {
		var buf bytes.Buffer
		DefenceSweep(Options{Seed: 42, EpisodeWorkers: epworkers, ShardWorkers: shardworkers}).Render(&buf)
		return buf.Bytes()
	}
	ref := render(1, 1)
	if len(ref) == 0 {
		t.Fatal("serial reference rendered no output")
	}
	for _, w := range [][2]int{{2, 1}, {8, 1}, {1, 3}, {1, 8}, {4, 4}, {3, 7}} {
		if got := render(w[0], w[1]); !bytes.Equal(got, ref) {
			t.Fatalf("epworkers=%d shardworkers=%d diverged from serial reference (b) at %s",
				w[0], w[1], firstDivergence(got, ref))
		}
	}
}

// TestDefenceSweepDefeatsAffinityAttack pins the sweep's headline result
// at seed 42: the undefended affinity scheduler hands the attacker perfect
// candidate precision at 256 servers, and at least one secure policy
// drives it below 0.5.
func TestDefenceSweepDefeatsAffinityAttack(t *testing.T) {
	rep := DefenceSweep(Options{Seed: 42})
	base, ok := rep.Metrics["precision_none_256"]
	if !ok {
		t.Fatal("baseline metric precision_none_256 missing")
	}
	if base != 1.0 {
		t.Fatalf("undefended precision at 256 servers = %g, want 1.0", base)
	}
	defended := []string{"pssf", "bandit-eps", "bandit-ucb", "mtd"}
	broke := false
	for _, p := range defended {
		key := "precision_" + p + "_256"
		v, ok := rep.Metrics[key]
		if !ok {
			t.Fatalf("metric %s missing", key)
		}
		if v < 0.5 {
			broke = true
		}
		for _, mk := range []string{"coresidency_p_", "det_accuracy_", "det_unknown_", "moves_", "probe_ticks_"} {
			if _, ok := rep.Metrics[mk+p+"_256"]; !ok {
				t.Fatalf("metric %s%s_256 missing", mk, p)
			}
		}
	}
	if !broke {
		t.Fatalf("no defended policy pushed precision below 0.5 at 256 servers")
	}
	if rep.Metrics["moves_mtd_256"] == 0 {
		t.Fatal("mtd ran without recording any migrations")
	}
}

// TestMTDMigratesVictimsMidAttack drives a real campaign with the
// moving-target hooks and checks the defence acted *during* the attack:
// victims moved, every victim is still resolvable through the cluster
// index afterwards, and migration churn never duplicated a VM.
func TestMTDMigratesVictimsMidAttack(t *testing.T) {
	rng := stats.NewRNG(9)
	sched := cluster.NewAffinity(cluster.LeastLoaded{})
	c := attack.NewCampaign(rng, 64, sched, true)

	mt := defence.NewMovingTarget(attack.CampaignProbeWindow / 2)
	for _, id := range c.Victims {
		mt.Track(id, 0)
	}
	hooks := attack.Hooks{AfterTick: func(tick sim.Tick, _ []fleet.Event) {
		for _, id := range c.Victims {
			if mt.Due(id, tick) {
				if _, err := c.Cl.Migrate(id, tick); err == nil {
					mt.Moved(id, tick)
				}
			}
		}
	}}
	out := c.Run(hooks)

	if mt.Moves() == 0 {
		t.Fatal("cadence never migrated a victim during the attack")
	}
	for _, id := range c.Victims {
		host := c.Cl.HostOf(id)
		if host == nil {
			t.Fatalf("victim %s lost by migration", id)
		}
		if host.Lookup(id) == nil {
			t.Fatalf("index says %s is on %s but the server does not hold it", id, host.Name())
		}
	}
	count := map[string]int{}
	for _, s := range c.Cl.Servers {
		for _, vm := range s.VMs() {
			count[vm.ID]++
		}
	}
	for id, n := range count {
		if n != 1 {
			t.Fatalf("VM %s appears on %d servers after migration churn", id, n)
		}
	}
	if out.Launches != attack.CampaignSenders {
		t.Fatalf("campaign launched %d senders, want %d", out.Launches, attack.CampaignSenders)
	}
}

// TestEpisodePartialProfileAfterVictimMigration is the probe-ramp edge:
// the victim is migrated away between an episode's iterations, so later
// ramps profile a host the victim already left. The graded outcome must
// still be well-formed — either a confident label from the detector's
// label space or a graceful degradation to UnknownLabel — never a crash or
// an empty grade.
func TestEpisodePartialProfileAfterVictimMigration(t *testing.T) {
	seed := uint64(11)
	det := core.TrainCached(workload.TrainingSpecs(seed), core.Config{})
	rng := stats.NewRNG(seed)

	cl := cluster.New(2, sim.ServerConfig{}, cluster.LeastLoaded{})
	vspec := workload.SQLDatabase(rng.Split(), 2)
	vspec.Jitter = 0
	app := workload.NewApp(vspec, workload.Constant{Level: 0.9}, rng.Uint64())
	host, err := cl.Place(&sim.VM{ID: "victim", VCPUs: 4, App: app}, 0)
	if err != nil {
		t.Fatal(err)
	}
	adv := probe.NewAdversary("adv", 4, probe.Config{}, rng.Split())
	if err := host.Place(adv.VM); err != nil {
		t.Fatal(err)
	}

	ep := det.NewEpisode(host, adv)
	var last *mining.Result
	for it := 0; it < 2; it++ {
		last = ep.Step(0)
	}
	if _, err := cl.Migrate("victim", ep.Ticks); err != nil {
		t.Fatalf("mid-episode migration: %v", err)
	}
	if cl.HostOf("victim") == host {
		t.Fatal("victim did not actually leave the profiled host")
	}
	for it := 0; it < 2; it++ {
		last = ep.Step(0)
	}

	label, conf, unknown := ep.Grade(last)
	if conf < 0 || conf > 1 {
		t.Fatalf("confidence %g outside [0, 1]", conf)
	}
	if unknown {
		if label != core.UnknownLabel {
			t.Fatalf("unknown grade carries label %q, want %q", label, core.UnknownLabel)
		}
		return
	}
	if label == "" {
		t.Fatal("confident grade with an empty label")
	}
	if _, ok := det.TrainingProfile(label); !ok {
		t.Fatalf("confident label %q is not in the detector's label space", label)
	}
}
