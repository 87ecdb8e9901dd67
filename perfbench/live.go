package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/live"
	"qcommit/internal/obs"
	"qcommit/internal/protocol"
	"qcommit/internal/storage"
	"qcommit/internal/transport"
	"qcommit/internal/transport/tcp"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
	"qcommit/internal/workload"
)

// The commit-uniform workload: a live cluster of 3 sites running QC1 with
// majority quorums over loopback TCP, one group-commit WAL per site, and a
// closed loop of clients each calling Begin and waiting for the outcome
// before its next transaction. Items are chosen uniformly, so lock
// conflicts are rare. The warm-up fills the lock manager's table, whose
// full scan on every release is then the largest single cost of a commit;
// sockets, codec, mailbox, automata, the WAL and GC do the rest. With the
// WAL on a virtual disk, 8 clients left the run waiting on fsyncs; 32 keep
// a batch filling while the last one syncs.
const (
	liveSites   = 3
	liveItems   = 4096
	liveWrites  = 2
	liveClients = 32
	timeoutBase = 200 * time.Millisecond
	// The run is a series of episodes. Each starts a fresh cluster, warms
	// it up until warmTxns transactions have an outcome (the covering
	// transactions among them), forces a GC, and measures the window in
	// which the next windowTxns outcomes arrive. The nodes keep state for
	// every transaction they have seen, and a commit costs more CPU the
	// more they hold (about twice as much 60000 transactions in), so a
	// window bounded by time would measure a state that depends on the
	// machine's speed. A window of fixed work measures the same state in
	// every episode, and the run reports the interquartile mean over them.
	warmTxns   = 4000
	windowTxns = 6000
	// Episodes repeat until their windows add up to the run's length and
	// minEpisodes of them count. An episode in which the machine's steal
	// share passes stealLimit does not count; episodes stop once their
	// windows add up to maxLengths times the run's length.
	minEpisodes = 5
	maxLengths  = 1.25
	maxWarmup   = time.Minute
	setupReps   = 41
)

// liveInputs is everything the program receives, generated from the seed
// before the run.
type liveInputs struct {
	asgn *voting.Assignment
	txns []workload.Txn
}

// makeInputs generates the inputs of every episode: the same transactions
// in the same order, so each episode measures the same work.
func makeInputs(seed int64) (liveInputs, error) {
	sites := siteIDs()
	configs := make([]voting.ItemConfig, liveItems)
	for i := range configs {
		copies := make([]voting.Copy, len(sites))
		for j, s := range sites {
			copies[j] = voting.Copy{Site: s, Votes: 1}
		}
		wq := len(sites)/2 + 1
		configs[i] = voting.ItemConfig{Item: types.ItemID(fmt.Sprintf("k%04d", i)), Copies: copies, R: len(sites) + 1 - wq, W: wq}
	}
	asgn, err := voting.NewAssignment(configs...)
	if err != nil {
		return liveInputs{}, err
	}
	gen, err := workload.NewGenerator(asgn, workload.Mix{WritesPerTxn: liveWrites}, seed)
	if err != nil {
		return liveInputs{}, err
	}
	txns := coverItems(asgn, liveWrites, rand.New(rand.NewSource(seed)))
	// Clients issue a few transactions past the window's last outcome; they
	// wrap around to the start of the pool.
	txns = append(txns, gen.Batch(warmTxns+windowTxns)...)
	return liveInputs{asgn: asgn, txns: txns}, nil
}

// coverItems returns transactions that write every item once, in a random
// order. They run first, inside the warm-up: the lock manager keeps an entry
// for every item it has locked, so the measured window starts with the
// table a long-running node has.
func coverItems(asgn *voting.Assignment, writes int, rng *rand.Rand) []workload.Txn {
	items := asgn.Items()
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	var out []workload.Txn
	for len(items) > 0 {
		n := min(writes, len(items))
		var ws types.Writeset
		for _, it := range items[:n] {
			ws = append(ws, types.Update{Item: it, Value: rng.Int63n(1000)})
		}
		items = items[n:]
		participants := asgn.Participants(ws.Items())
		out = append(out, workload.Txn{Coord: participants[rng.Intn(len(participants))], Writeset: ws})
	}
	return out
}

func siteIDs() []types.SiteID {
	s := make([]types.SiteID, liveSites)
	for i := range s {
		s[i] = types.SiteID(i + 1)
	}
	return s
}

// liveCluster is one running cluster and what the benchmark needs to read
// and release afterwards.
type liveCluster struct {
	cl   *live.Cluster
	fab  *tcp.Fabric
	logs map[types.SiteID]*wal.GroupLog
	dir  string
	reg  *obs.Registry
}

var clusterSeq atomic.Int64

// startCluster builds the fabric, opens one group-commit log per site and
// starts the cluster. With a tracer, the transport, the logs and the spec
// are decorated.
func startCluster(in liveInputs, workdir string, t *tracer) (*liveCluster, error) {
	c := &liveCluster{
		logs: make(map[types.SiteID]*wal.GroupLog),
		dir:  filepath.Join(workdir, fmt.Sprintf("wal-%d-%d", os.Getpid(), clusterSeq.Add(1))),
		reg:  obs.NewRegistry(),
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	fab, err := tcp.NewFabric(siteIDs(), tcp.Options{})
	if err != nil {
		c.release()
		return nil, err
	}
	fab.RegisterMetrics(c.reg)
	c.fab = fab
	for _, s := range siteIDs() {
		l, err := wal.OpenGroupLog(filepath.Join(c.dir, fmt.Sprintf("site%d.wal", s)))
		if err != nil {
			fab.Close()
			c.release()
			return nil, err
		}
		c.logs[s] = l
	}
	var tr transport.Transport = fab
	var spec protocol.Spec = core.Spec{Variant: core.Protocol1}
	logFor := func(s types.SiteID) wal.Log { return c.logs[s] }
	if t != nil {
		tr = tracedTransport{tr, t}
		spec = tracedSpec{spec, t}
		logFor = func(s types.SiteID) wal.Log { return t.wrapLog(s, c.logs[s], c.reg) }
	}
	c.cl = live.New(live.Config{
		Assignment:  in.asgn,
		Spec:        spec,
		TimeoutBase: timeoutBase,
		Transport:   tr,
		WAL:         logFor,
		Obs:         &obs.Observer{Registry: c.reg},
	})
	return c, nil
}

// stop stops the cluster (which closes the transport), closes the logs and
// removes their files.
func (c *liveCluster) stop() error {
	c.cl.Stop()
	return c.release()
}

func (c *liveCluster) release() error {
	var first error
	for _, l := range c.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(c.dir); err != nil && first == nil {
		first = err
	}
	return first
}

func (c *liveCluster) walBytes() int64 {
	var n int64
	for _, l := range c.logs {
		if fi, err := os.Stat(l.Path()); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func (c *liveCluster) fsyncs() uint64 {
	var n uint64
	for _, l := range c.logs {
		n += l.Fsyncs()
	}
	return n
}

// txnRecord is one transaction as a client saw it. Times are offsets from
// the start of the load.
type txnRecord struct {
	id           types.TxnID
	input        int // index into liveInputs.txns, modulo its length
	issued, done time.Duration
	outcome      types.Outcome
}

// episode is what one cluster, from start to stop, produced.
type episode struct {
	setup            float64 // seconds to start the cluster
	winStart, winEnd time.Duration
	cpu              time.Duration
	load             machineLoad
	rt0, rt1         rtSample
	heapMB           float64 // live heap after the last outcome, after a forced GC
	walBytes         int64
	fsyncs           uint64
	frames, batches  uint64
	lockHoldP99MS    float64

	// Outcomes that arrived in the window.
	attempted, committed, completed int
	latMS                           []float64

	// Gates, over every transaction of the episode, warm-up included.
	total, unresolved, violations, staleItems int
}

func (e episode) window() time.Duration { return e.winEnd - e.winStart }

func (e episode) failed() int { return e.unresolved + e.violations + e.staleItems }

// scored returns the episodes the end-to-end metrics are taken over: those
// the machine did not disturb, and whether there are at least minEpisodes
// of them. When there are fewer, the run is not valid, and the figures are
// taken over the minEpisodes episodes with the least steal.
func scored(eps []episode) ([]episode, bool) {
	var out []episode
	for _, e := range eps {
		if !e.load.disturbed() {
			out = append(out, e)
		}
	}
	if len(out) >= minEpisodes {
		return out, true
	}
	out = append([]episode(nil), eps...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].load.steal < out[j].load.steal })
	return out[:min(minEpisodes, len(out))], false
}

// runEpisodes runs episodes until their windows add up to length and, for
// an undecorated run, minEpisodes of them count. With a tracer every
// cluster is decorated and the tracer records during the windows; with a
// profile stem each window has a CPU profile, whose paths are returned.
func runEpisodes(in liveInputs, length time.Duration, workdir string, t *tracer, profileStem string) ([]episode, []string, error) {
	var eps []episode
	var profiles []string
	var measured time.Duration
	for {
		enough := measured >= length
		if t == nil {
			_, valid := scored(eps)
			enough = enough && valid
		}
		if enough || float64(measured) >= maxLengths*float64(length) {
			break
		}
		profile := ""
		if profileStem != "" {
			profile = fmt.Sprintf("%s-%d.pprof", profileStem, len(eps))
			profiles = append(profiles, profile)
		}
		e, err := runEpisode(in, workdir, t, profile)
		if err != nil {
			return nil, nil, err
		}
		eps = append(eps, e)
		measured += e.window()
	}
	return eps, profiles, nil
}

// runEpisode starts a cluster, warms it up, measures one window, drains it
// and checks every output.
func runEpisode(in liveInputs, workdir string, t *tracer, profile string) (episode, error) {
	var e episode
	var c *liveCluster
	setup, err := stopwatch(1, func(int) (err error) {
		c, err = startCluster(in, workdir, t)
		return err
	})
	if err != nil {
		return e, err
	}
	e.setup = setup
	recs, err := drive(c, in, t, profile, &e)
	if err != nil {
		c.stop()
		return e, err
	}
	checkOutcomes(c, in, recs, &e)
	if err := c.stop(); err != nil {
		return e, fmt.Errorf("closing logs: %w", err)
	}
	for _, r := range recs {
		if r.done < e.winStart || r.done >= e.winEnd {
			continue
		}
		e.attempted++
		switch r.outcome {
		case types.OutcomeCommitted:
			e.committed++
			e.completed++
			e.latMS = append(e.latMS, float64(r.done-r.issued)/1e6)
		case types.OutcomeAborted:
			e.completed++
		}
	}
	return e, nil
}

// drive applies the load: a warm-up ending in a forced GC, then the window
// of windowTxns outcomes, over which it reads the counters. It then stops
// the clients, waits for every one to have its last outcome or for its
// wait to expire, and takes the live heap after a forced GC.
func drive(c *liveCluster, in liveInputs, t *tracer, profile string, e *episode) ([]txnRecord, error) {
	start := time.Now()
	waitDeadline := 10*timeoutBase + 5*time.Second
	var stop atomic.Bool
	var next, completed atomic.Int64
	warmDone, winDone := make(chan struct{}), make(chan struct{})
	var winLast atomic.Int64 // the outcome count that closes the window; 0 until it opens
	var winStart, winEnd atomic.Int64

	run := func(i int) txnRecord {
		r := txnRecord{input: i, issued: time.Since(start)}
		txn := in.txns[i%len(in.txns)]
		traced := t != nil && t.on.Load()
		var root, begin span
		if traced {
			root = t.open(layerTxn, 0, 0, 0)
			begin = t.open(layerBegin, 0, 0, root.id)
		}
		r.id = c.cl.Begin(txn.Coord, txn.Writeset)
		if traced {
			begin.txn = r.id
			t.close(begin)
		}
		r.outcome = c.cl.WaitOutcome(r.id, waitDeadline)
		if traced {
			root.txn = r.id
			t.close(root)
		}
		r.done = time.Since(start)
		switch n := completed.Add(1); n {
		case warmTxns:
			close(warmDone)
		case winLast.Load():
			// The window closes at this outcome's time: the records of the
			// window are those done in [winStart, winEnd).
			winEnd.Store(int64(r.done) + 1)
			close(winDone)
		}
		return r
	}
	var wg sync.WaitGroup
	perClient := make([][]txnRecord, liveClients)
	for k := range perClient {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for !stop.Load() {
				perClient[k] = append(perClient[k], run(int(next.Add(1)-1)))
			}
		}(k)
	}
	halt := func(err error) ([]txnRecord, error) {
		stop.Store(true)
		wg.Wait()
		return nil, err
	}

	select {
	case <-warmDone:
	case <-time.After(maxWarmup):
		return halt(fmt.Errorf("warm-up: fewer than %d outcomes in %v", warmTxns, maxWarmup))
	}
	runtime.GC()
	e.rt0 = readRuntime()
	wal0, fs0, ws0 := c.walBytes(), c.fsyncs(), c.fab.WriteStats()
	var profErr error
	var prof *os.File
	if profile != "" {
		if prof, profErr = os.Create(profile); profErr == nil {
			profErr = pprof.StartCPUProfile(prof)
		}
	}
	if t != nil {
		t.on.Store(true)
	}
	cpu0, m0 := cpuTime(), readMachine()
	winStart.Store(int64(time.Since(start)))
	winLast.Store(completed.Load() + windowTxns)

	select {
	case <-winDone:
	case <-time.After(maxWarmup):
		if prof != nil {
			pprof.StopCPUProfile()
			prof.Close()
		}
		return halt(fmt.Errorf("window: fewer than %d outcomes in %v", windowTxns, maxWarmup))
	}
	e.cpu, e.load = cpuTime()-cpu0, loadBetween(m0, readMachine())
	e.winStart, e.winEnd = time.Duration(winStart.Load()), time.Duration(winEnd.Load())
	stop.Store(true)
	if t != nil {
		t.on.Store(false)
	}
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil && profErr == nil {
			profErr = err
		}
	}
	e.rt1 = readRuntime()
	ws1 := c.fab.WriteStats()
	e.walBytes, e.fsyncs = c.walBytes()-wal0, c.fsyncs()-fs0
	e.frames, e.batches = ws1.Frames-ws0.Frames, ws1.Batches-ws0.Batches

	wg.Wait()
	runtime.GC()
	e.heapMB = float64(readRuntime().liveHeap) / (1 << 20)
	e.lockHoldP99MS = obs.MergeHistograms(c.reg.Snapshot(), "qcommit_lock_hold_ns").Quantile(0.99) / 1e6
	var recs []txnRecord
	for _, rs := range perClient {
		recs = append(recs, rs...)
	}
	return recs, profErr
}

// checkOutcomes applies the correctness gates: every transaction reached a
// commit or an abort, no transaction committed at one site and aborted at
// another, and every read quorum of every item resolves to the item's last
// committed write. Committed writes carry version TxnID+1, so the last one
// is the committed writer with the highest ID.
func checkOutcomes(c *liveCluster, in liveInputs, recs []txnRecord, pr *episode) {
	initial := storage.NewStore(0)
	initial.Init("x", 0)
	unwritten, _ := initial.Read("x")
	want := make(map[types.ItemID]storage.Versioned)
	for _, r := range recs {
		pr.total++
		switch r.outcome {
		case types.OutcomeCommitted:
			version := uint64(r.id) + 1
			for _, u := range in.txns[r.input%len(in.txns)].Writeset {
				if cur, ok := want[u.Item]; !ok || version > cur.Version {
					want[u.Item] = storage.Versioned{Value: u.Value, Version: version}
				}
			}
		case types.OutcomeAborted:
		default:
			pr.unresolved++
		}
		if c.cl.Violated(r.id) {
			pr.violations++
		}
	}
	for _, item := range in.asgn.Items() {
		expect, ok := want[item]
		if !ok {
			expect = unwritten
		}
		ic, _ := in.asgn.Item(item)
		var copies []storage.Versioned
		for _, cp := range ic.Copies {
			if v, err := c.cl.Node(cp.Site).Store().Read(item); err == nil {
				copies = append(copies, v)
			}
		}
		if !everyQuorumReads(copies, ic.R, expect) {
			pr.staleItems++
		}
	}
}

// everyQuorumReads reports whether every r-subset of copies resolves to
// want.
func everyQuorumReads(copies []storage.Versioned, r int, want storage.Versioned) bool {
	if len(copies) < r {
		return false
	}
	pick := make([]storage.Versioned, 0, r)
	var rec func(from int) bool
	rec = func(from int) bool {
		if len(pick) == r {
			got, err := storage.ResolveRead(pick)
			return err == nil && got == want
		}
		for i := from; i <= len(copies)-(r-len(pick)); i++ {
			pick = append(pick, copies[i])
			ok := rec(i + 1)
			pick = pick[:len(pick)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// runLive runs commit-uniform: the end-to-end metrics of undecorated
// episodes, or with o.trace undecorated episodes for half the length
// followed by decorated, profiled ones for the other half and the
// per-layer metrics.
func runLive(o options) (result, error) {
	var res result
	length := time.Duration(o.seconds) * time.Second
	if o.trace {
		length /= 2
	}
	in, err := makeInputs(o.seed)
	if err != nil {
		return res, err
	}

	plain, _, err := runEpisodes(in, length, o.workdir, nil, "")
	if err != nil {
		return res, err
	}
	var traced []episode
	var profiles []string
	var t *tracer
	if o.trace {
		t = newTracer(siteIDs())
		traced, profiles, err = runEpisodes(in, length, o.workdir, t, filepath.Join(o.workdir, "cpu-commit-uniform"))
		if err != nil {
			return res, err
		}
	}

	res.correct = true
	for _, e := range append(plain, traced...) {
		res.attempted += e.total
		res.failed += e.failed()
		if e.failed() > 0 {
			res.correct = false
			res.note("gate failed: %d unresolved, %d atomicity violations, %d items whose read quorums miss the last committed write", e.unresolved, e.violations, e.staleItems)
		}
	}
	// The run's load is the windows' loads weighted by their lengths.
	var committed, attempted int
	secs := measuredSeconds(plain)
	for _, e := range plain {
		committed += e.committed
		attempted += e.attempted
		res.load.steal += ratio(e.load.steal*e.window().Seconds(), secs)
		res.load.iowait += ratio(e.load.iowait*e.window().Seconds(), secs)
	}
	res.note("commit-uniform: %d committed of %d outcomes in %d windows (fail share %.5f)",
		committed, attempted, len(plain), 1-ratio(float64(committed), float64(attempted)))
	_, res.valid = scored(plain)

	if !o.trace {
		setups := make([]float64, 0, setupReps)
		for _, e := range plain {
			setups = append(setups, e.setup)
		}
		for len(setups) < setupReps {
			var c *liveCluster
			s, err := stopwatch(1, func(int) (err error) {
				c, err = startCluster(in, o.workdir, nil)
				return err
			})
			if err != nil {
				return res, err
			}
			setups = append(setups, s)
			if err := c.stop(); err != nil {
				return res, err
			}
		}
		addEndToEnd(&res, median(setups), plain)
		return res, nil
	}

	if err := t.writeSpans(filepath.Join(o.workdir, "spans-commit-uniform.csv")); err != nil {
		return res, err
	}
	shares, err := packageShares(profiles...)
	if err != nil {
		return res, err
	}
	addLiveLayers(&res, traced, t)
	addShares(&res, shares)
	res.add("trace.overhead_share", 1-ratio(goodput(traced), goodput(plain)))
	return res, nil
}

func measuredSeconds(eps []episode) float64 {
	var s float64
	for _, e := range eps {
		s += e.window().Seconds()
	}
	return s
}

// goodput is the commits per second over every window of eps.
func goodput(eps []episode) float64 {
	var committed int
	for _, e := range eps {
		committed += e.committed
	}
	return ratio(float64(committed), measuredSeconds(eps))
}

// addEndToEnd reports the interquartile mean over the scored episodes of
// every rate, share, latency, cost and heap figure.
func addEndToEnd(res *result, setup float64, eps []episode) {
	counted, _ := scored(eps)
	over := func(f func(episode) float64) float64 {
		var xs []float64
		for _, e := range counted {
			xs = append(xs, f(e))
		}
		return iqm(xs)
	}
	res.add("setup_s", setup)
	res.add("goodput_per_s", over(func(e episode) float64 { return ratio(float64(e.committed), e.window().Seconds()) }))
	res.add("commit_p50_ms", over(func(e episode) float64 { return quantile(e.latMS, 0.50) }))
	res.add("commit_p99_ms", over(func(e episode) float64 { return quantile(e.latMS, 0.99) }))
	res.add("commit_share", over(func(e episode) float64 { return ratio(float64(e.committed), float64(e.attempted)) }))
	res.add("cpu_us_per_commit", over(func(e episode) float64 { return ratio(float64(e.cpu.Microseconds()), float64(e.committed)) }))
	res.add("heap_peak_mb", over(func(e episode) float64 { return e.heapMB }))
	res.add("trials_per_s", over(func(e episode) float64 { return ratio(float64(e.completed), e.window().Seconds()) }))
	fewest := windowTxns
	for _, e := range eps {
		res.note("episode: %.2f s, %d committed, %d completed, p50 %.3f ms, p99 %.3f ms, cpu %.1f us/commit, heap %.2f MB, %.2f commits/fsync, %.2f frames/batch, steal %.3f, iowait %.3f%s",
			e.window().Seconds(), e.committed, e.completed, quantile(e.latMS, 0.5), quantile(e.latMS, 0.99),
			ratio(float64(e.cpu.Microseconds()), float64(e.committed)), e.heapMB, ratio(float64(e.committed), float64(e.fsyncs)),
			ratio(float64(e.frames), float64(e.batches)), e.load.steal, e.load.iowait, disturbedMark(e.load))
	}
	for _, e := range counted {
		fewest = min(fewest, len(e.latMS))
	}
	res.note("latency samples: %d of %d episodes scored, at least %d committed transactions in each (its p99 has %d beyond it)",
		len(counted), len(eps), fewest, fewest/100)
}

// addLiveLayers derives the per-layer metrics of the decorated episodes.
func addLiveLayers(res *result, eps []episode, t *tracer) {
	var sum episode
	for _, e := range eps {
		sum.committed += e.committed
		sum.attempted += e.attempted
		sum.frames += e.frames
		sum.batches += e.batches
		sum.fsyncs += e.fsyncs
		sum.walBytes += e.walBytes
		sum.cpu += e.cpu
		sum.lockHoldP99MS = max(sum.lockHoldP99MS, e.lockHoldP99MS)
	}
	commits := float64(sum.committed)
	per := func(v float64) float64 { return ratio(v, commits) }
	tot := t.totals()
	meanUS := func(l layer) float64 { return ratio(tot[l].totalNS, float64(tot[l].count)) / 1e3 }

	res.add("live.begin_us_mean", meanUS(layerBegin))
	res.add("live.deliver_us_mean", meanUS(layerDeliver))

	res.add("transport.sends_per_commit", per(float64(tot[layerSend].count)))
	res.add("transport.send_us_mean", meanUS(layerSend))
	res.add("transport.bytes_per_commit", per(float64(t.sendBytes.Load())))
	res.add("transport.frames_per_batch", ratio(float64(sum.frames), float64(sum.batches)))

	res.add("automaton.self_us_per_commit", per(tot[layerAutomaton].selfNS/1e3))
	res.add("automaton.events_per_commit", per(float64(tot[layerAutomaton].count)))
	res.add("automaton.timer_fires_per_commit", per(float64(t.timerFires.Load())))
	res.add("automaton.terminations_per_1k", 1000*ratio(float64(t.terminations.Load()), float64(sum.attempted)))

	res.add("lockmgr.acquire_us_mean", meanUS(layerLocks))
	res.add("lockmgr.conflict_ratio", ratio(float64(t.lockConflicts.Load()), float64(t.lockCalls.Load())))
	res.add("lockmgr.hold_p99_ms", sum.lockHoldP99MS)

	appends := float64(tot[layerAppend].count)
	res.add("wal.appends_per_commit", per(appends))
	res.add("wal.append_us_mean", meanUS(layerAppend))
	res.add("wal.durable_wait_p99_ms", quantile(tot[layerDurable].durationsN, 0.99)/1e6)
	res.add("wal.fsyncs_per_commit", per(float64(sum.fsyncs)))
	res.add("wal.batch_mean", ratio(appends, float64(sum.fsyncs)))
	res.add("wal.bytes_per_commit", per(float64(sum.walBytes)))

	res.add("host.commit_us_mean", ratio(tot[layerCommit].selfNS, float64(tot[layerCommit].count))/1e3)

	var rt rtSample // the windows' runtime counters, summed
	var retained float64
	for _, e := range eps {
		rt.gcCPU += e.rt1.gcCPU - e.rt0.gcCPU
		rt.busyCPU += e.rt1.busyCPU - e.rt0.busyCPU
		rt.allocObjs += e.rt1.allocObjs - e.rt0.allocObjs
		rt.allocB += e.rt1.allocB - e.rt0.allocB
		retained += e.heapMB*(1<<20) - float64(e.rt0.liveHeap)
	}
	addRuntime(res, rtSample{}, rt, commits, retained)

	var selfNS float64
	for _, l := range cpuLayers {
		selfNS += tot[l].selfNS
	}
	cpuPerCommitUS := per(float64(sum.cpu.Microseconds()))
	res.add("ledger.unattributed_share", 1-ratio(per(selfNS/1e3), cpuPerCommitUS))
	for _, l := range cpuLayers {
		res.note("ledger: %-16s %8.2f us self per commit (%d spans)", layerNames[l], per(tot[l].selfNS/1e3), tot[l].count)
	}
	res.note("ledger: cpu %.2f us per commit over %d commits in %d traced windows", cpuPerCommitUS, sum.committed, len(eps))
}

// addRuntime adds the Go runtime's per-commit costs between two readings.
func addRuntime(res *result, rt0, rt1 rtSample, commits, retained float64) {
	res.add("runtime.gc_cpu_share", ratio(rt1.gcCPU-rt0.gcCPU, rt1.busyCPU-rt0.busyCPU))
	res.add("runtime.allocs_per_commit", ratio(float64(rt1.allocObjs-rt0.allocObjs), commits))
	res.add("runtime.alloc_bytes_per_commit", ratio(float64(rt1.allocB-rt0.allocB), commits))
	res.add("runtime.heap_retained_bytes_per_commit", ratio(retained, commits))
}
