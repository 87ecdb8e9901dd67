// Command perfbench is the repository benchmark. It runs one named workload
// against the live commit runtime (internal/live over the tcp fabric,
// group-commit WALs, the lock manager and the QC1 automata) or the hybrid
// churn engine (internal/churn), checks that every output is correct, and
// prints its metrics as one JSON object on the last line of stdout:
//
//	perfbench -workload commit-uniform -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of an undecorated run. With
// -trace 1 it runs the workload twice, first undecorated and then with every
// layer decorated from outside (transport, WAL, protocol spec and the Env the
// automata call back through) and a CPU profile on, and prints the per-layer
// metrics. DESIGN.md lists the workloads, the metrics and which end-to-end
// metric each layer metric is expected to move.
//
// The process exits 1 when a correctness gate fails or the run cannot
// complete, and 2 on bad flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef is a reported metric: its name, unit and which way is better.
type metricDef struct{ name, unit, better string }

// endToEnd and perLayer are every metric the benchmark reports, in the
// order BENCHMARK.json lists them. Every workload reports all of them; a
// layer a workload does not run reports 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"goodput_per_s", "1/s", "higher"},
	{"commit_p50_ms", "ms", "lower"},
	{"commit_p99_ms", "ms", "lower"},
	{"commit_share", "ratio", "higher"},
	{"cpu_us_per_commit", "us", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"trials_per_s", "1/s", "higher"},
}

var perLayer = []metricDef{
	{"live.begin_us_mean", "us", "lower"},
	{"live.deliver_us_mean", "us", "lower"},
	{"transport.sends_per_commit", "count", "lower"},
	{"transport.send_us_mean", "us", "lower"},
	{"transport.bytes_per_commit", "bytes", "lower"},
	{"transport.frames_per_batch", "count", "higher"},
	{"automaton.self_us_per_commit", "us", "lower"},
	{"automaton.events_per_commit", "count", "lower"},
	{"automaton.timer_fires_per_commit", "count", "lower"},
	{"automaton.terminations_per_1k", "count", "lower"},
	{"lockmgr.acquire_us_mean", "us", "lower"},
	{"lockmgr.conflict_ratio", "ratio", "lower"},
	{"lockmgr.hold_p99_ms", "ms", "lower"},
	{"wal.appends_per_commit", "count", "lower"},
	{"wal.append_us_mean", "us", "lower"},
	{"wal.durable_wait_p99_ms", "ms", "lower"},
	{"wal.fsyncs_per_commit", "count", "lower"},
	{"wal.batch_mean", "count", "higher"},
	{"wal.bytes_per_commit", "bytes", "lower"},
	{"host.commit_us_mean", "us", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.allocs_per_commit", "count", "lower"},
	{"runtime.alloc_bytes_per_commit", "bytes", "lower"},
	{"runtime.heap_retained_bytes_per_commit", "bytes", "lower"},
	{"engine.cpu_share", "ratio", "lower"},
	{"sim.cpu_share", "ratio", "lower"},
	{"simnet.cpu_share", "ratio", "lower"},
	{"wal.cpu_share", "ratio", "lower"},
	{"automaton.cpu_share", "ratio", "lower"},
	{"quorumcalc.cpu_share", "ratio", "lower"},
	{"churn.cpu_share", "ratio", "lower"},
	{"live.cpu_share", "ratio", "lower"},
	{"transport.cpu_share", "ratio", "lower"},
	{"lockmgr.cpu_share", "ratio", "lower"},
	{"churn.alloc_bytes_per_trial", "bytes", "lower"},
	{"ledger.unattributed_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// result is what one workload run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	// valid is false when the machine disturbed too much of the measured
	// window for its figures to be the program's; load is what the machine
	// did over that window.
	valid bool
	load  machineLoad
	// notes are printed on stdout before the result line: sample counts,
	// quantities that are reported but not scored, and why a gate failed.
	notes []string
}

func (r *result) add(name string, v float64) {
	if r.values == nil {
		r.values = make(map[string]float64)
	}
	r.values[name] = v
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// options are the benchmark's inputs.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

var workloads = map[string]func(options) (result, error){
	"commit-uniform": runLive,
	"churn-hybrid":   runChurn,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: commit-uniform or churn-hybrid")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input of the run is generated from")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds (set-up, warm-up and checks are not timed)")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a decorated, profiled run; 0 prints end-to-end metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for WAL files, spans and profiles")
	flag.Parse()

	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds >= 1 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	o.trace = trace == 1
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	res, err := run(o)
	printRecord(o, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.valid {
		fmt.Printf("run not valid: too little of the window had a machine steal share under %.2f; the figures below are not only the program's\n", stealLimit)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line, err := encodeResult(res, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// encodeResult renders the result line: every metric of the mode's list,
// and nothing else.
func encodeResult(r result, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		ms[d.name] = value{r.values[d.name], d.unit}
	}
	for name := range r.values {
		if _, ok := ms[name]; !ok {
			return nil, fmt.Errorf("metric %q is not in the reported list", name)
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}

// printRecord prints the run record: the machine and toolchain the numbers
// were measured on, the inputs that produced them, what the machine's other
// tenants took while they were measured, and whether the run is valid.
func printRecord(o options, res result) {
	rec := map[string]any{
		"steal_share":  res.load.steal,
		"iowait_share": res.load.iowait,
		"steal_limit":  stealLimit,
		"valid":        res.valid,
		"workload":     o.workload,
		"seed":         o.seed,
		"seconds":      o.seconds,
		"trace":        o.trace,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"wal_fs_type":  fsType(o.workdir),
	}
	line, _ := json.Marshal(rec) // a map of strings, numbers and bools always encodes
	fmt.Println("run record:", string(line))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(abs, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
