package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qcommit/internal/core"
	"qcommit/internal/protocol"
	"qcommit/internal/storage"
	"qcommit/internal/twopc"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's workloads and metric
// lists to what the command runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command reports %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestWrapLogKeepsAsyncness checks that the WAL decorator is an AsyncLog
// exactly when the log it wraps is one, so a decorated node keeps the path
// it would take undecorated.
func TestWrapLogKeepsAsyncness(t *testing.T) {
	tr := newTracer(siteIDs())
	gl, err := wal.OpenGroupLog(filepath.Join(t.TempDir(), "g.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer gl.Close()
	if _, ok := tr.wrapLog(1, gl, nil).(wal.AsyncLog); !ok {
		t.Error("a decorated GroupLog is not an AsyncLog")
	}
	if _, ok := tr.wrapLog(1, wal.NewMemLog(), nil).(wal.AsyncLog); ok {
		t.Error("a decorated MemLog is an AsyncLog")
	}
}

// TestWrapAutomatonForwardsOptionalMethods checks that a decorated automaton
// has State and AcksAtDecision exactly when the inner one does, and forwards
// them.
func TestWrapAutomatonForwardsOptionalMethods(t *testing.T) {
	tr := newTracer(siteIDs())
	ws := types.Writeset{{Item: "x", Value: 1}}
	parts := []types.SiteID{1, 2, 3}
	for _, spec := range []protocol.Spec{core.Spec{Variant: core.Protocol1}, twopc.Spec{}} {
		for role, inner := range map[string]protocol.Automaton{
			"coordinator": spec.NewCoordinator(1, ws, parts),
			"participant": spec.NewParticipant(1, nil),
			"terminator":  spec.NewTerminator(1, ws, parts, 1),
		} {
			outer := tr.wrapAutomaton(1, inner)
			is, isOK := inner.(stateful)
			ost, osOK := outer.(stateful)
			if isOK != osOK || (isOK && is.State() != ost.State()) {
				t.Errorf("%s %s: State forwarding differs (inner %v, decorated %v)", spec.Name(), role, isOK, osOK)
			}
			ia, iaOK := inner.(ackCounter)
			oa, oaOK := outer.(ackCounter)
			if iaOK != oaOK || (iaOK && ia.AcksAtDecision() != oa.AcksAtDecision()) {
				t.Errorf("%s %s: AcksAtDecision forwarding differs (inner %v, decorated %v)", spec.Name(), role, iaOK, oaOK)
			}
		}
	}
}

// TestTracedUniformKeepsFlusherPath runs one decorated commit-uniform
// episode: the gates must pass and group commit must still batch, so fewer
// fsyncs than appends.
func TestTracedUniformKeepsFlusherPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live cluster")
	}
	in, err := makeInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(siteIDs())
	e, err := runEpisode(in, t.TempDir(), tr, "")
	if err != nil {
		t.Fatal(err)
	}
	if e.failed() > 0 || e.committed == 0 {
		t.Fatalf("gates: %d committed, %d unresolved, %d violations, %d stale items", e.committed, e.unresolved, e.violations, e.staleItems)
	}
	appends := tr.totals()[layerAppend].count
	if appends == 0 || e.fsyncs >= uint64(appends) {
		t.Errorf("group commit lost under decoration: %d fsyncs for %d appends", e.fsyncs, appends)
	}
}

// TestProfiledChurnStudyIsIdentical checks that profiling the churn workload
// leaves its results bit-identical; the builders are never decorated, since
// the hybrid engine models only the standard specs.
func TestProfiledChurnStudyIsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two churn studies")
	}
	plain, err := measureChurn(3, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := measureChurn(3, 0, filepath.Join(t.TempDir(), "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.first, profiled.first) {
		t.Error("the profiled study differs from the unprofiled one")
	}
	if plain.gatedViolations != 0 {
		t.Errorf("%d atomicity violations under the gated protocols", plain.gatedViolations)
	}
}

func TestEveryQuorumReads(t *testing.T) {
	v := func(value int64, version uint64) storage.Versioned {
		return storage.Versioned{Value: value, Version: version}
	}
	want := v(7, 9)
	for _, tc := range []struct {
		name   string
		copies []storage.Versioned
		ok     bool
	}{
		{"all current", []storage.Versioned{want, want, want}, true},
		{"one stale copy", []storage.Versioned{want, v(3, 4), want}, true},
		{"two stale copies", []storage.Versioned{want, v(3, 4), v(3, 4)}, false},
		{"wrong value at the last version", []storage.Versioned{v(8, 9), want, want}, false},
		{"too few copies", []storage.Versioned{want}, false},
	} {
		if got := everyQuorumReads(tc.copies, 2, want); got != tc.ok {
			t.Errorf("%s: everyQuorumReads = %v, want %v", tc.name, got, tc.ok)
		}
	}
}

func TestIQM(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3, 2}, 2},
		{[]float64{1, 2, 3, 4}, 2.5},
		// Two modes and two outliers: the middle half is 4 values, 2 from
		// each mode.
		{[]float64{0, 10, 10, 10, 20, 20, 20, 99}, 15},
	} {
		if got := iqm(tc.xs); got != tc.want {
			t.Errorf("iqm(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestLoadBetween(t *testing.T) {
	a := machineSample{total: 1000, iowait: 100, steal: 10}
	b := machineSample{total: 1200, iowait: 150, steal: 40}
	got := loadBetween(a, b)
	if got.steal != 0.15 || got.iowait != 0.25 || !got.disturbed() {
		t.Errorf("loadBetween = %+v, disturbed %v; want steal 0.15, iowait 0.25, disturbed", got, got.disturbed())
	}
	if loadBetween(a, a).disturbed() {
		t.Error("an empty interval is disturbed")
	}
}
