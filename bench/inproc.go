package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vec"
	"repro/internal/wal"
)

func loadSharded(r io.Reader) (*shard.Sharded, error) {
	return shard.Load(r, shard.Options{Pager: pagerCfg})
}

// inproc is the serving topology of the wire workloads rebuilt inside the
// benchmark's own process for the traced pass: router → follower (reads) or
// primary (writes), each on a loopback httptest listener, the follower fed by
// the real replication protocol. One process means one clock, so the spans of
// a request nest; the price is that the nodes share a runtime and its
// collector, which the real cluster's processes do not. One follower, not
// two: the router has nothing to balance for a single sequential client.
type inproc struct {
	primary, follower, router *httptest.Server
	fol                       *replica.Follower
	rt                        *replica.Router
	primaryIx                 index        // the concrete primary index
	followerIx                atomic.Value // the follower's concrete index, once bootstrapped
	closeWAL                  func() error
	walDir                    string
}

func (t *inproc) close() {
	if t.router != nil {
		t.router.Close()
	}
	if t.rt != nil {
		t.rt.Stop()
	}
	if t.fol != nil {
		t.fol.Stop()
	}
	if t.follower != nil {
		t.follower.Close()
	}
	if t.primary != nil {
		t.primary.Close()
	}
	if t.closeWAL != nil {
		t.closeWAL()
	}
	os.RemoveAll(t.walDir)
}

// startInproc serves exactly one of single and sharded. Every handler is
// wrapped in a span recorder and every index in the index.* decorator.
func startInproc(p params, tr *tracer, single *nncell.Index, sharded *shard.Sharded) (t *inproc, err error) {
	t = &inproc{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if t.walDir, err = os.MkdirTemp(p.tmpDir, "inproc-wal-"); err != nil {
		return t, err
	}
	walOpts := wal.Options{Policy: wal.SyncInterval, Interval: 100 * time.Millisecond}
	var prim replica.Primary
	if sharded != nil {
		if err = sharded.OpenWALs(t.walDir, walOpts); err != nil {
			return t, err
		}
		t.closeWAL = sharded.CloseWALs
		t.primaryIx, prim = sharded, replica.ShardedPrimary(sharded)
	} else {
		l, err := wal.Open(t.walDir, walOpts)
		if err != nil {
			return t, err
		}
		single.AttachWAL(l)
		t.closeWAL = func() error { single.AttachWAL(nil); return l.Close() }
		t.primaryIx, prim = single, replica.SinglePrimary(single)
	}
	src, err := replica.NewSource(prim, nil)
	if err != nil {
		return t, err
	}
	psrv := server.New(tracedIndex{index: t.primaryIx, tr: tr}, server.Config{ReplSource: src})
	t.primary = httptest.NewServer(tracedHandler(tr, "server.serve", psrv.Handler()))

	var fsrv *server.Server
	var pending index
	t.fol, err = replica.NewFollower(replica.Config{
		Primary: t.primary.URL,
		Load: func(r io.Reader) (replica.Replica, error) {
			br := bufio.NewReader(r)
			magic, err := br.Peek(len(shard.Magic))
			if err != nil {
				return nil, fmt.Errorf("reading snapshot magic: %w", err)
			}
			if shard.IsSnapshotMagic(string(magic)) {
				sx, err := loadSharded(br)
				if err != nil {
					return nil, err
				}
				pending = sx
				return replica.ShardedReplica(sx), nil
			}
			ix, err := nncell.Load(br, pager.New(pagerCfg))
			if err != nil {
				return nil, err
			}
			pending = ix
			return replica.SingleReplica(ix), nil
		},
		// Load and OnReplica run one after the other on the follower's goroutine.
		OnReplica: func(replica.Replica) {
			t.followerIx.Store(&pending)
			fsrv.SetIndex(tracedIndex{index: pending, tr: tr})
		},
	})
	if err != nil {
		return t, err
	}
	fsrv = server.New(nil, server.Config{ReadOnly: true, Follower: t.fol})
	t.follower = httptest.NewServer(tracedHandler(tr, "server.serve", fsrv.Handler()))
	t.fol.Start()

	if t.rt, err = replica.NewRouter(replica.RouterConfig{Primary: t.primary.URL, Followers: []string{t.follower.URL}}); err != nil {
		return t, err
	}
	t.rt.Start()
	t.router = httptest.NewServer(tracedHandler(tr, "router.serve", t.rt))
	deadline := time.Now().Add(readyTimeout)
	for t.rt.Stats().HealthyFollowers != 1 {
		if time.Now().After(deadline) {
			return t, fmt.Errorf("in-process follower not healthy within %v: %+v", readyTimeout, t.fol.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return t, nil
}

// followerIndex returns the follower's concrete index.
func (t *inproc) followerIndex() index { return *t.followerIx.Load().(*index) }

// interleavedPass sends n reads from one sequential client with nWrites
// writes spread evenly among them, and returns the reads' latencies.
func interleavedPass(n int, reads poolTarget, writes target, firstWrite, nWrites int, tl *tally, pt *passTrace) []int64 {
	if nWrites == 0 {
		return fixedPass(0, n, reads, tl, pt)
	}
	every := n / nWrites
	var lat []int64
	for k := 0; k < nWrites; k++ {
		lat = append(lat, fixedPass(k*every, every, reads, tl, pt)...)
		tl.attempted++
		if err := writes.do(0, firstWrite+k); err != nil {
			tl.fail(err)
		}
	}
	return lat
}

// traceWire is the traced pass of a wire workload: the fixed op count from
// one sequential client through the in-process topology, first with spans off
// and then with spans on.
func traceWire(p params, rep *report, tl *tally, single *nncell.Index, sharded *shard.Sharded,
	pool []vec.Point, table *oracle, writer *httpWriter) error {
	tr := newTracer()
	top, err := startInproc(p, tr, single, sharded)
	if err != nil {
		return fmt.Errorf("in-process topology: %w", err)
	}
	defer top.close()
	rep.notef("traced pass ran on an in-process copy of the topology (httptest listeners, one follower), so all spans share one clock")

	reads := newHTTPReads(loadClient(1), top.router.URL, 0, pool, table, 1)
	var writes target
	nWrites := 0
	if writer != nil {
		writer.client, writer.base = loadClient(1), top.router.URL
		writes, nWrites = writer, 4*len(writer.ops)
	}
	st0 := top.primaryIx.Stats()
	untraced := interleavedPass(p.traceOps(), reads, writes, 0, nWrites, tl, nil)
	tr.enabled.Store(true)
	if writer != nil {
		writer.tr = tr
	}
	traced := interleavedPass(p.traceOps(), reads, writes, nWrites, nWrites, tl,
		&passTrace{tr: tr, root: "client.request", candidates: top.followerIndex()})
	if writer != nil {
		st1 := top.primaryIx.Stats()
		rep.set("nncell.lp_solves_per_write", float64(st1.LPSolves-st0.LPSolves)/float64(2*nWrites), 2*nWrites)
		rep.set("nncell.lp_pivots_per_write", float64(st1.LPPivots-st0.LPPivots)/float64(2*nWrites), 2*nWrites)
	}
	return traceMetrics(p, rep, tr, untraced, traced)
}

// handlerProbe times the serving layer alone: a /v1/nn request through
// server.New(ix).Handler() into a recorder, no socket. The request and the
// recorder are made outside the timed call.
func handlerProbe(rep *report, pr prober, ix server.Index, bodies [][]byte) error {
	h := server.New(ix, server.Config{}).Handler()
	stage := func(i int) (*http.Request, *httptest.ResponseRecorder) {
		req := httptest.NewRequest(http.MethodPost, "/v1/nn", bytes.NewReader(bodies[i%len(bodies)]))
		req.Header.Set("Content-Type", "application/json")
		return req, httptest.NewRecorder()
	}
	req, rec := stage(0)
	bad := 0
	e, err := pr.run(1, 1, funcTarget{
		fn: func(int, int) { h.ServeHTTP(rec, req) },
		after: func(_, i int) {
			if rec.Code != http.StatusOK {
				bad++
			}
			req, rec = stage(i + 1)
		},
	})
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("handler probe: %d replies were not 200", bad)
	}
	rep.setEst("server.handler_nn_p50_us", e, 1e-3)
	return nil
}
