package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"time"

	"qcommit/internal/churn"
	"qcommit/internal/sim"
	"qcommit/internal/voting"
)

// churnParams is the churn-hybrid workload: a 32-site world with site and
// partition churn, where partitions force a large replay fallback.
var churnParams = churn.Params{
	NumSites:         32,
	NumItems:         512,
	CopiesPerItem:    4,
	WritesPerTxn:     2,
	MeanInterarrival: 10 * sim.Millisecond,
	MTTF:             20 * sim.Second,
	MTTR:             1 * sim.Second,
	PartitionMTBF:    5 * sim.Second,
	PartitionMTTR:    500 * sim.Millisecond,
	MaxGroups:        3,
	Horizon:          10 * sim.Second,
	Strategy:         voting.StrategyQuorum,
	Engine:           churn.EngineHybrid,
}

const (
	churnRuns = 32
	// churnLatencyColumn is the protocol whose time to termination is
	// reported as the churn workload's commit latency.
	churnLatencyColumn = "QC1"
	// churnUnsafeColumn may violate atomicity under partitions, which is
	// the paper's point; its violations are reported, not gated.
	churnUnsafeColumn = "3PC"
	// replayCheckRuns is how many runs the hybrid engine is compared with
	// the replay engine on, after the measurement.
	replayCheckRuns = 2
	// fidelityStudies is how many studies, from the first, the simulated
	// figures (latencies, commit share) are taken over. Every run measures
	// at least these, so the figures depend on the seed alone.
	fidelityStudies = 3
	// minScored is how many studies the machine must leave undisturbed
	// (see stealLimit) for the rates and costs to be taken over those
	// alone. Studies go on past the window, up to half as long again,
	// until there are this many.
	minScored      = 3
	churnSetupReps = 7
)

// churnWorkers is how many goroutines a study uses. With one per CPU on a
// 2-CPU machine shared with other tenants, trials/s spread about twice as
// much from run to run as with one.
const churnWorkers = 1

// studySeed derives the k-th study's seed of a run from the workload seed.
// A study's run r draws its world from the study's seed plus r, so studies
// are churnRuns seeds apart and no two studies of a run share a world.
func studySeed(seed int64, k int) int64 { return seed<<20 + int64(k)*churnRuns }

// churnPhase is what a sequence of studies measured.
type churnPhase struct {
	rt0, rt1                    rtSample
	load                        machineLoad
	studies                     []studyCost
	trials                      int
	gatedViolations, unsafeViol int
	first                       []churn.Result
	// Over the first fidelityStudies studies only, so they depend on the
	// seed and not on how many studies fit in the window.
	committed, submitted int
	latencies            []float64 // ms, the latency column's terminated transactions
}

// studyCost is what one study took.
type studyCost struct {
	elapsed, cpu      time.Duration
	trials, committed int
	heapMB            float64 // largest live heap during the study
	load              machineLoad
}

// scored returns the studies the rates and costs are taken over: those the
// machine did not disturb, or every study when fewer than minScored were
// undisturbed, in which case the run is not valid.
func (ph churnPhase) scored() (studies []studyCost, valid bool) {
	for _, s := range ph.studies {
		if !s.load.disturbed() {
			studies = append(studies, s)
		}
	}
	if len(studies) < minScored {
		return ph.studies, false
	}
	return studies, true
}

// sum adds up the phase's scored studies. Each study has its own seed
// and so its own amount of work; the rates and costs are ratios of these
// sums, so every scored study counts in proportion to its length.
func (ph churnPhase) sum() (total studyCost) {
	scored, _ := ph.scored()
	for _, s := range scored {
		total.elapsed += s.elapsed
		total.cpu += s.cpu
		total.trials += s.trials
		total.committed += s.committed
	}
	return total
}

// heapPeakMB returns the interquartile mean of the studies' heap peaks,
// leaving out the first study's, which is lower than the rest. The heap
// does not depend on the machine's steal, so every later study counts.
func (ph churnPhase) heapPeakMB() float64 {
	var xs []float64
	for _, s := range ph.studies[1:] {
		xs = append(xs, s.heapMB)
	}
	return iqm(xs)
}

func (ph churnPhase) trialsPerS() float64 {
	t := ph.sum()
	return ratio(float64(t.trials), t.elapsed.Seconds())
}

// measureChurn runs whole studies, one after another, until length has
// passed and at least fidelityStudies and minScored undisturbed studies
// have run (or half as long again); a CPU profile covers them when profile
// is set.
func measureChurn(seed int64, length time.Duration, profile string) (churnPhase, error) {
	var ph churnPhase
	builders := churn.StandardBuilders()
	var prof *os.File
	if profile != "" {
		var err error
		if prof, err = os.Create(profile); err != nil {
			return ph, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return ph, err
		}
	}
	ph.rt0 = readRuntime()
	heap := startHeapPeak()
	start, m0 := time.Now(), readMachine()
	mPrev := m0
	more := func(k, undisturbed int) bool {
		if k < fidelityStudies {
			return true
		}
		el := time.Since(start)
		return el < length || (undisturbed < minScored && el < length*3/2)
	}
	var err error
	for k, undisturbed := 0, 0; more(k, undisturbed); k++ {
		t0, cpu0 := time.Now(), cpuTime()
		var res []churn.Result
		res, err = churn.StudyParallel(churnParams, churnRuns, studySeed(seed, k), builders, churn.Options{Workers: churnWorkers})
		if err != nil {
			break
		}
		m := readMachine()
		st := studyCost{elapsed: time.Since(t0), cpu: cpuTime() - cpu0, heapMB: heap.Take(), load: loadBetween(mPrev, m)}
		mPrev = m
		if !st.load.disturbed() {
			undisturbed++
		}
		if k == 0 {
			ph.first = res
		}
		for _, r := range res {
			st.trials += r.Runs
			st.committed += r.Counts.Committed
			ph.trials += r.Runs
			switch r.Label {
			case churnUnsafeColumn:
				ph.unsafeViol += r.Violations
			default:
				ph.gatedViolations += r.Violations
			}
			if k >= fidelityStudies {
				continue
			}
			ph.committed += r.Counts.Committed
			ph.submitted += r.Counts.Submitted
			if r.Label == churnLatencyColumn {
				for _, d := range r.Latencies {
					ph.latencies = append(ph.latencies, float64(d)/float64(sim.Millisecond))
				}
			}
		}
		ph.studies = append(ph.studies, st)
	}
	heap.Stop()
	ph.load = loadBetween(m0, mPrev)
	ph.rt1 = readRuntime()
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	return ph, err
}

// runChurn runs the churn-hybrid workload.
func runChurn(o options) (result, error) {
	var res result
	length := time.Duration(o.seconds) * time.Second
	if o.trace {
		length /= 2
	}
	var setup float64
	if !o.trace {
		// Set-up is the time to a first result: a one-run study.
		var err error
		setup, err = stopwatch(churnSetupReps, func(i int) error {
			_, err := churn.Study(churnParams, 1, studySeed(o.seed, -1-i), churn.StandardBuilders())
			return err
		})
		if err != nil {
			return res, err
		}
	}

	plain, err := measureChurn(o.seed, length, "")
	if err != nil {
		return res, err
	}
	res.attempted, res.failed = plain.trials, plain.gatedViolations
	profile := filepath.Join(o.workdir, "cpu-churn-hybrid.pprof")
	var traced churnPhase
	if o.trace {
		if traced, err = measureChurn(o.seed, length, profile); err != nil {
			return res, err
		}
		res.attempted += traced.trials
		res.failed += traced.gatedViolations
		if !reflect.DeepEqual(plain.first, traced.first) {
			res.failed++
			res.note("gate failed: the profiled study differs from the same study unprofiled")
		}
	}
	mismatch, err := checkHybridMatchesReplay(o.seed)
	if err != nil {
		return res, err
	}
	if mismatch != "" {
		res.failed++
		res.note("gate failed: hybrid and replay disagree: %s", mismatch)
	}
	if plain.gatedViolations+traced.gatedViolations > 0 {
		res.note("gate failed: %d atomicity violations under 2PC, SkeenQ, QC1 or QC2", plain.gatedViolations+traced.gatedViolations)
	}
	res.correct = res.failed == 0
	res.note("churn-hybrid: %d studies of %d runs, %d trials, %d workers; %d 3PC violations (not gated: 3PC is unsafe under partitions)",
		len(plain.studies), churnRuns, plain.trials, churnWorkers, plain.unsafeViol)
	res.note("latency samples: %d %s terminations in the first %d studies (p99 has %d beyond it)",
		len(plain.latencies), churnLatencyColumn, fidelityStudies, len(plain.latencies)/100)
	scored, valid := plain.scored()
	for _, s := range plain.studies {
		res.note("study: %.2f s, %d trials, %.1f us cpu/commit, heap %.2f MB, steal %.3f, iowait %.3f%s", s.elapsed.Seconds(), s.trials,
			ratio(float64(s.cpu.Microseconds()), float64(s.committed)), s.heapMB, s.load.steal, s.load.iowait, disturbedMark(s.load))
	}
	res.note("%d of %d studies scored", len(scored), len(plain.studies))
	res.valid, res.load = valid, plain.load

	if !o.trace {
		res.add("setup_s", setup)
		t := plain.sum()
		res.add("goodput_per_s", ratio(float64(t.committed), t.elapsed.Seconds()))
		res.add("commit_p50_ms", quantile(plain.latencies, 0.50))
		res.add("commit_p99_ms", quantile(plain.latencies, 0.99))
		res.add("commit_share", ratio(float64(plain.committed), float64(plain.submitted)))
		res.add("cpu_us_per_commit", ratio(float64(t.cpu.Microseconds()), float64(t.committed)))
		res.add("heap_peak_mb", plain.heapPeakMB())
		res.add("trials_per_s", plain.trialsPerS())
		return res, nil
	}

	shares, err := packageShares(profile)
	if err != nil {
		return res, err
	}
	addShares(&res, shares)
	addRuntime(&res, traced.rt0, traced.rt1, float64(traced.committed), 0)
	res.add("churn.alloc_bytes_per_trial", ratio(float64(traced.rt1.allocB-traced.rt0.allocB), float64(traced.trials)))
	var named float64
	for _, g := range shareGroups {
		named += shares[g.metric]
	}
	res.add("ledger.unattributed_share", 1-named)
	res.add("trace.overhead_share", 1-ratio(traced.trialsPerS(), plain.trialsPerS()))
	return res, nil
}

// checkHybridMatchesReplay runs the workload's parameters for a few runs
// under both engines and describes the first column whose transaction fates
// or violations differ ("" when none do).
func checkHybridMatchesReplay(seed int64) (string, error) {
	replayParams := churnParams
	replayParams.Engine = churn.EngineReplay
	s := studySeed(seed, 1<<14)
	hybrid, err := churn.Study(churnParams, replayCheckRuns, s, churn.StandardBuilders())
	if err != nil {
		return "", err
	}
	replay, err := churn.Study(replayParams, replayCheckRuns, s, churn.StandardBuilders())
	if err != nil {
		return "", err
	}
	type fates struct {
		Arrivals, Submitted, Committed, Aborted, Blocked, Unresolved, Rejected, Violations int
	}
	of := func(r churn.Result) fates {
		c := r.Counts
		return fates{c.Arrivals, c.Submitted, c.Committed, c.Aborted, c.Blocked, c.Unresolved, c.Rejected, r.Violations}
	}
	for i := range hybrid {
		if h, r := of(hybrid[i]), of(replay[i]); h != r {
			return fmt.Sprintf("%s: hybrid %+v, replay %+v", hybrid[i].Label, h, r), nil
		}
	}
	return "", nil
}

// shareGroups maps repository packages onto the layers whose CPU share the
// traced run reports.
var shareGroups = []struct {
	metric   string
	packages []string
}{
	{"engine.cpu_share", []string{"engine"}},
	{"sim.cpu_share", []string{"sim"}},
	{"simnet.cpu_share", []string{"simnet"}},
	{"wal.cpu_share", []string{"wal"}},
	{"automaton.cpu_share", []string{"core", "twopc", "threepc", "threephase", "skeenq", "protocol", "election"}},
	{"quorumcalc.cpu_share", []string{"quorumcalc"}},
	{"churn.cpu_share", []string{"churn"}},
	{"live.cpu_share", []string{"live"}},
	{"transport.cpu_share", []string{"transport", "transport/tcp", "transport/inproc", "msg"}},
	{"lockmgr.cpu_share", []string{"lockmgr"}},
}

func addShares(res *result, shares map[string]float64) {
	for _, g := range shareGroups {
		res.add(g.metric, shares[g.metric])
	}
}

// packageShares reads the stacks of one or more CPU profiles with the
// installed `go tool pprof` and returns, per share group, the fraction of
// sampled CPU time whose innermost repository frame belongs to the group. Runtime and
// standard-library work is charged to the repository code that called it;
// samples with no repository frame (background GC, the scheduler) or whose
// innermost non-runtime frame is the benchmark's own code count toward the
// total only.
func packageShares(profiles ...string) (map[string]float64, error) {
	out, err := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, profiles...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", strings.Join(profiles, " "), err)
	}
	group := make(map[string]string)
	for _, g := range shareGroups {
		for _, p := range g.packages {
			group["qcommit/internal/"+p] = g.metric
		}
	}
	var total float64
	charged := make(map[string]float64)
	// Each sample is a separator line, then "<time> <leaf function>", then
	// one caller per line.
	for _, sample := range strings.Split(string(out), "-----------+")[1:] {
		lines := strings.Split(sample, "\n")[1:]
		if len(lines) == 0 {
			continue
		}
		first := strings.Fields(lines[0])
		if len(first) < 2 {
			continue
		}
		d, err := time.ParseDuration(first[0])
		if err != nil {
			continue
		}
		total += d.Seconds()
		lines[0] = strings.Join(first[1:], " ")
		for _, f := range lines {
			pkg := packageOf(strings.TrimSpace(f))
			if pkg == "main" {
				break
			}
			if strings.HasPrefix(pkg, "qcommit/") {
				if m, ok := group[pkg]; ok {
					charged[m] += d.Seconds()
				}
				break
			}
		}
	}
	shares := make(map[string]float64, len(charged))
	for m, v := range charged {
		shares[m] = ratio(v, total)
	}
	return shares, nil
}

// packageOf returns the import path of a profiled function's package, as
// in "qcommit/internal/engine" for "qcommit/internal/engine.(*Site).handle".
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
