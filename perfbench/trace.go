package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"qcommit/internal/msg"
	"qcommit/internal/obs"
	"qcommit/internal/protocol"
	"qcommit/internal/transport"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// layer names a decorator boundary a span is recorded at.
type layer uint8

const (
	layerTxn       layer = iota // client: Begin until the outcome is known (the root)
	layerBegin                  // live.Cluster.Begin
	layerDeliver                // the transport's delivery callback: the post into a node mailbox
	layerSend                   // transport.Transport.Send
	layerAutomaton              // protocol.Automaton Start/OnMessage/OnTimer
	layerLocks                  // protocol.Env.AcquireLocks
	layerCommit                 // protocol.Env.Commit/Abort: log, apply, release
	layerAppend                 // wal.Log.Append or wal.AsyncLog.AppendAsync
	layerDurable                // wal.AsyncLog.WaitDurable, one per flush job
	numLayers
)

var layerNames = [numLayers]string{
	"txn", "live.begin", "live.deliver", "transport.send", "automaton",
	"lockmgr.acquire", "host.commit", "wal.append", "wal.durable_wait",
}

// cpuLayers are the layers whose self time is work on a CPU; the root span
// and the durable wait are waiting, and stay out of the ledger.
var cpuLayers = []layer{layerBegin, layerDeliver, layerSend, layerAutomaton, layerLocks, layerCommit, layerAppend}

// span is one timed call at a layer boundary. Spans of one transaction share
// txn; parent is the enclosing span on the same node goroutine, or 0 when
// the span hangs directly off the transaction's root.
type span struct {
	id, parent int64
	txn        types.TxnID
	site       types.SiteID
	layer      layer
	start, end int64 // ns since the tracer's epoch
}

// active is the span currently open on a node goroutine, so calls it makes
// into the transport and the WAL can name it as their parent.
type active struct {
	id  int64
	txn types.TxnID
}

// tracer records spans in memory while on, and the counts that have no
// duration. Decorators hold it; while it is off they only forward.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	cur map[types.SiteID]*atomic.Pointer[active] // fixed at construction

	timerFires, terminations atomic.Int64
	lockCalls, lockConflicts atomic.Int64
	sendBytes                atomic.Int64
}

func newTracer(sites []types.SiteID) *tracer {
	t := &tracer{epoch: time.Now(), cur: make(map[types.SiteID]*atomic.Pointer[active], len(sites))}
	for _, s := range sites {
		t.cur[s] = new(atomic.Pointer[active])
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) open(l layer, site types.SiteID, txn types.TxnID, parent int64) span {
	return span{id: t.nextID.Add(1), parent: parent, txn: txn, site: site, layer: l, start: t.now()}
}

func (t *tracer) close(s span) {
	s.end = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// parentAt returns the span open on site's node goroutine if it belongs to
// txn. A call from another goroutine of the same site for the same
// transaction that overlaps it is attributed to it too; the flusher's
// released sends are the only such calls, and they rarely overlap a call for
// the transaction they belong to.
func (t *tracer) parentAt(site types.SiteID, txn types.TxnID) int64 {
	if slot := t.cur[site]; slot != nil {
		if a := slot.Load(); a != nil && a.txn == txn {
			return a.id
		}
	}
	return 0
}

// enter opens a span on site's node goroutine and makes it the parent of
// the calls made inside it; leave restores the enclosing one.
func (t *tracer) enter(l layer, site types.SiteID, txn types.TxnID) (span, *active) {
	slot := t.cur[site]
	prev := slot.Load()
	var parent int64
	if prev != nil && prev.txn == txn {
		parent = prev.id
	}
	s := t.open(l, site, txn, parent)
	slot.Store(&active{id: s.id, txn: txn})
	return s, prev
}

func (t *tracer) leave(s span, prev *active) {
	t.cur[s.site].Store(prev)
	t.close(s)
}

// tracedTransport decorates a transport: Send and the delivery callback are
// timed, and sent frames are counted and sized.
type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (tr tracedTransport) Bind(h transport.Handler) {
	tr.Transport.Bind(func(env msg.Envelope) {
		if !tr.t.on.Load() {
			h(env)
			return
		}
		s := tr.t.open(layerDeliver, env.To, msg.TxnOf(env.Msg), 0)
		h(env)
		tr.t.close(s)
	})
}

func (tr tracedTransport) Send(env msg.Envelope) {
	if !tr.t.on.Load() {
		tr.Transport.Send(env)
		return
	}
	// Sizing marshals the message once more; it happens before the span
	// opens so the send time stays the fabric's own.
	if frame, err := msg.Marshal(env.Msg); err == nil {
		tr.t.sendBytes.Add(int64(len(frame)))
	}
	txn := msg.TxnOf(env.Msg)
	s := tr.t.open(layerSend, env.From, txn, tr.t.parentAt(env.From, txn))
	tr.Transport.Send(env)
	tr.t.close(s)
}

// wrapLog decorates a site's log. The result is a wal.AsyncLog exactly when
// l is one, so the node keeps its flusher path. live registers a
// *wal.GroupLog's metrics only when it sees that concrete type, so the
// decorator registers them itself.
func (t *tracer) wrapLog(site types.SiteID, l wal.Log, reg *obs.Registry) wal.Log {
	if gl, ok := l.(*wal.GroupLog); ok {
		gl.RegisterMetrics(reg, site)
	}
	base := &tracedLog{inner: l, t: t, site: site}
	if al, ok := l.(wal.AsyncLog); ok {
		return tracedAsyncLog{base, al}
	}
	return base
}

type tracedLog struct {
	inner wal.Log
	t     *tracer
	site  types.SiteID
}

func (l *tracedLog) Append(r wal.Record) error {
	if !l.t.on.Load() {
		return l.inner.Append(r)
	}
	s := l.t.open(layerAppend, l.site, r.Txn, l.t.parentAt(l.site, r.Txn))
	err := l.inner.Append(r)
	l.t.close(s)
	return err
}

func (l *tracedLog) Records() ([]wal.Record, error) { return l.inner.Records() }

type tracedAsyncLog struct {
	*tracedLog
	async wal.AsyncLog
}

func (l tracedAsyncLog) AppendAsync(r wal.Record) wal.Ticket {
	if !l.t.on.Load() {
		return l.async.AppendAsync(r)
	}
	s := l.t.open(layerAppend, l.site, r.Txn, l.t.parentAt(l.site, r.Txn))
	tk := l.async.AppendAsync(r)
	l.t.close(s)
	return tk
}

func (l tracedAsyncLog) WaitDurable(tk wal.Ticket) error {
	if !l.t.on.Load() {
		return l.async.WaitDurable(tk)
	}
	s := l.t.open(layerDurable, l.site, 0, 0)
	err := l.async.WaitDurable(tk)
	l.t.close(s)
	return err
}

func (l tracedAsyncLog) Durable() wal.Ticket { return l.async.Durable() }

// tracedSpec decorates a protocol spec so every automaton it builds is
// timed. The election FSM is not built by the spec and stays undecorated.
type tracedSpec struct {
	inner protocol.Spec
	t     *tracer
}

func (s tracedSpec) Name() string { return s.inner.Name() }

func (s tracedSpec) NewCoordinator(txn types.TxnID, ws types.Writeset, participants []types.SiteID) protocol.Automaton {
	return s.t.wrapAutomaton(txn, s.inner.NewCoordinator(txn, ws, participants))
}

func (s tracedSpec) NewParticipant(txn types.TxnID, init *wal.TxnImage) protocol.Automaton {
	return s.t.wrapAutomaton(txn, s.inner.NewParticipant(txn, init))
}

func (s tracedSpec) NewTerminator(txn types.TxnID, ws types.Writeset, participants []types.SiteID, epoch uint32) protocol.Automaton {
	if s.t.on.Load() {
		s.t.terminations.Add(1)
	}
	return s.t.wrapAutomaton(txn, s.inner.NewTerminator(txn, ws, participants, epoch))
}

// stateful and ackCounter are the optional automaton methods hosts probe
// for; a decorated automaton has one exactly when the inner one does.
type (
	stateful   interface{ State() types.State }
	ackCounter interface{ AcksAtDecision() int }
)

func (t *tracer) wrapAutomaton(txn types.TxnID, a protocol.Automaton) protocol.Automaton {
	base := &tracedAutomaton{inner: a, t: t, txn: txn}
	st, isSt := a.(stateful)
	ac, isAc := a.(ackCounter)
	switch {
	case isSt && isAc:
		return struct {
			*tracedAutomaton
			stateful
			ackCounter
		}{base, st, ac}
	case isSt:
		return struct {
			*tracedAutomaton
			stateful
		}{base, st}
	case isAc:
		return struct {
			*tracedAutomaton
			ackCounter
		}{base, ac}
	}
	return base
}

type tracedAutomaton struct {
	inner protocol.Automaton
	t     *tracer
	txn   types.TxnID
}

func (a *tracedAutomaton) Start(env protocol.Env) {
	if !a.t.on.Load() {
		a.inner.Start(env)
		return
	}
	s, prev := a.t.enter(layerAutomaton, env.Self(), a.txn)
	a.inner.Start(tracedEnv{env, a.t})
	a.t.leave(s, prev)
}

func (a *tracedAutomaton) OnMessage(from types.SiteID, m msg.Message, env protocol.Env) {
	if !a.t.on.Load() {
		a.inner.OnMessage(from, m, env)
		return
	}
	s, prev := a.t.enter(layerAutomaton, env.Self(), a.txn)
	a.inner.OnMessage(from, m, tracedEnv{env, a.t})
	a.t.leave(s, prev)
}

func (a *tracedAutomaton) OnTimer(token int, env protocol.Env) {
	if !a.t.on.Load() {
		a.inner.OnTimer(token, env)
		return
	}
	a.t.timerFires.Add(1)
	s, prev := a.t.enter(layerAutomaton, env.Self(), a.txn)
	a.inner.OnTimer(token, tracedEnv{env, a.t})
	a.t.leave(s, prev)
}

// tracedEnv decorates the Env an automaton calls back through: the lock
// manager and the host's commit/abort are timed as children of the
// automaton call.
type tracedEnv struct {
	protocol.Env
	t *tracer
}

func (e tracedEnv) AcquireLocks(txn types.TxnID) bool {
	s, prev := e.t.enter(layerLocks, e.Self(), txn)
	ok := e.Env.AcquireLocks(txn)
	e.t.leave(s, prev)
	e.t.lockCalls.Add(1)
	if !ok {
		e.t.lockConflicts.Add(1)
	}
	return ok
}

func (e tracedEnv) Commit(txn types.TxnID) {
	s, prev := e.t.enter(layerCommit, e.Self(), txn)
	e.Env.Commit(txn)
	e.t.leave(s, prev)
}

func (e tracedEnv) Abort(txn types.TxnID) {
	s, prev := e.t.enter(layerCommit, e.Self(), txn)
	e.Env.Abort(txn)
	e.t.leave(s, prev)
}

// layerTotals is what the spans of one layer add up to.
type layerTotals struct {
	count      int
	totalNS    float64
	selfNS     float64
	durationsN []float64 // every span's duration, for percentiles
}

// totals folds the recorded spans per layer; a span's self time is its
// duration minus the durations of its children.
func (t *tracer) totals() [numLayers]layerTotals {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	child := make(map[int64]int64)
	for _, s := range spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out [numLayers]layerTotals
	for _, s := range spans {
		d := float64(s.end - s.start)
		lt := &out[s.layer]
		lt.count++
		lt.totalNS += d
		lt.selfNS += d - float64(child[s.id])
		lt.durationsN = append(lt.durationsN, d)
	}
	return out
}

// writeSpans writes every recorded span to path as CSV.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,txn,site,layer,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.txn, s.site, layerNames[s.layer], s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
