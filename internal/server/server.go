// Package server exposes an nncell.Index over HTTP as a low-latency
// query-serving layer: JSON endpoints for nearest-neighbor, k-NN and
// candidate queries (single and batch), a Prometheus-format /metrics surface,
// and /healthz. The paper's point-query formulation of NN search — retrieve
// the MBR approximations containing q, refine among the candidates — is
// request/response shaped, and the index's read path (pooled QueryCtx
// contexts, RWMutex read side) already serves concurrent readers at zero
// allocations per warm query, so the handlers simply call the public
// nncell API and spend their budget on hygiene: admission control, bounded
// request bodies, per-endpoint latency histograms, graceful drain on
// shutdown, and optional periodic snapshots via Index.Save.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iofault"
	"repro/internal/nncell"
	"repro/internal/replica"
	"repro/internal/vec"
)

// Index is the serving abstraction: everything the handlers, the metrics
// surface and the snapshot loop need from an index. Both nncell.Index (one
// lock) and shard.Sharded (hash- or grid-routed, fan-out reads, per-shard
// locking) satisfy it, so the same serving layer fronts either.
type Index interface {
	Dim() int
	Len() int
	Point(id int) (vec.Point, bool)
	NearestNeighbor(q vec.Point) (nncell.Neighbor, error)
	KNearest(q vec.Point, k int) ([]nncell.Neighbor, error)
	CandidatesAppend(dst []int, q vec.Point) []int
	NearestNeighborBatch(qs []vec.Point, workers int) ([]nncell.Neighbor, error)
	Insert(p vec.Point) (int, error)
	InsertBatch(ps []vec.Point) ([]int, error)
	Delete(id int) error
	Stats() nncell.Stats
	Save(w io.Writer) error
}

// walRotator is the single-index WAL compaction surface (nncell.Index).
type walRotator interface {
	RotateWAL() (uint64, error)
	CompactWAL(cut uint64) error
}

// shardWALRotator is the sharded equivalent (shard.Sharded): one cut per
// shard's private log.
type shardWALRotator interface {
	RotateWAL() ([]uint64, error)
	CompactWAL(cuts []uint64) error
}

// FollowerStats is what the serving layer needs from a replication
// follower: a point-in-time progress snapshot for readiness and /metrics.
type FollowerStats interface {
	Stats() replica.Stats
}

// Config tunes the serving layer. The zero value serves with the documented
// defaults.
type Config struct {
	// RequestTimeout bounds how long a request may wait for an admission
	// slot; it is also the deadline attached to the request context.
	// Default 5s.
	RequestTimeout time.Duration
	// ShutdownGrace bounds how long Serve waits for in-flight requests to
	// drain after its context is canceled. Default 10s.
	ShutdownGrace time.Duration
	// MaxBodyBytes caps request body sizes. Default 1 MiB.
	MaxBodyBytes int64
	// MaxInFlight is the admission limit for query endpoints (requests over
	// the limit wait up to RequestTimeout, then are shed with 503).
	// /healthz and /metrics are exempt so observability survives overload.
	// Default 4×GOMAXPROCS.
	MaxInFlight int
	// MaxBatch caps the number of points per batch request. Default 1024.
	MaxBatch int
	// MaxK caps the k of /v1/knn requests. Default 256.
	MaxK int
	// SnapshotPath, if non-empty, makes Serve write the index there (via an
	// atomic tmp+rename+dir-fsync) every SnapshotEvery and once more during
	// shutdown. When the served index has a WAL attached, each snapshot also
	// compacts the log (rotate → save → truncate), bounding recovery time.
	SnapshotPath  string
	SnapshotEvery time.Duration
	// FS is the filesystem snapshots are written through. Default the real
	// one; crash tests inject an iofault.Mem.
	FS iofault.FS
	// ReadOnly makes every mutation endpoint answer 403: follower mode.
	// Writes belong on the primary; the read router forwards them there.
	ReadOnly bool
	// ReplSource, if non-nil, is mounted at /v1/repl/ so followers can
	// bootstrap from and tail this server's WAL (primary mode).
	ReplSource *replica.Source
	// Follower, if non-nil, folds replication lag into readiness and
	// /metrics (follower mode): /healthz answers 503 until the follower
	// has bootstrapped and whenever lag exceeds the SLO below. The read
	// router's health probes key on exactly this signal, so "shed reads to
	// the primary" happens precisely when every follower is over SLO.
	// *replica.Follower satisfies this.
	Follower FollowerStats
	// LagSLORecords / LagSLOSeconds bound how stale a READY follower may
	// report itself: readiness fails when the apply position trails the
	// primary by more than LagSLORecords records, or when lag has persisted
	// longer than LagSLOSeconds. Zero disables that axis (a follower with
	// both zero is ready as soon as it bootstraps).
	LagSLORecords uint64
	LagSLOSeconds float64
}

func (c *Config) normalize() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.MaxK <= 0 {
		c.MaxK = 256
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 5 * time.Minute
	}
	if c.FS == nil {
		c.FS = iofault.OS{}
	}
}

// DefaultConfig returns the zero Config with its defaults filled in: what New
// serves with, and what `nncell serve` offers as its flag defaults.
func DefaultConfig() Config {
	var c Config
	c.normalize()
	return c
}

// ixBox wraps the served index so the atomic holder always stores one
// concrete type (atomic.Value requires it), including "no index yet".
type ixBox struct{ ix Index }

// RecoveryInfo describes the startup recovery the serving process
// performed; the server reports it on /healthz and /metrics.
type RecoveryInfo struct {
	// SnapshotLoaded reports whether a base snapshot was loaded.
	SnapshotLoaded bool
	// WALDir is the replayed log directory ("" when durability is off).
	WALDir string
	// Stats are the replay counters.
	Stats nncell.RecoveryStats
}

// Server serves one Index; `nncell serve` hands it a shard.Sharded of one
// shard or more. Construct with New, then either mount Handler on an
// existing mux or call Listen followed by Serve. The server can start
// BEFORE its index: New(nil, cfg) serves 503 on every index
// endpoint and "loading" on readiness until SetIndex installs the index —
// that is what lets a recovering process expose liveness and progress
// while the snapshot loads and the WAL replays.
type Server struct {
	ixv      atomic.Value // *ixBox; ix == nil until ready
	reason   atomic.Value // string: why not ready
	recovery atomic.Value // *RecoveryInfo
	replSrc  atomic.Value // *replica.Source; nil until primary mode is enabled

	cfg   Config
	m     *metrics
	sem   chan struct{}
	mux   *http.ServeMux
	hs    *http.Server
	ln    net.Listener
	cands sync.Pool // *[]int candidate buffers
}

// New builds a Server around an index (nil: start not-ready and install the
// index later with SetIndex). The index must outlive the server; queries
// hold its read lock(s), so Insert/Delete/Save on the same index remain
// safe while serving.
func New(ix Index, cfg Config) *Server {
	cfg.normalize()
	s := &Server{
		cfg: cfg,
		sem: make(chan struct{}, cfg.MaxInFlight),
	}
	s.reason.Store("index not loaded")
	s.ixv.Store(&ixBox{})
	if ix != nil {
		s.SetIndex(ix)
	}
	s.cands.New = func() interface{} { b := make([]int, 0, 16); return &b }
	s.m = &metrics{endpoints: make(map[string]*endpointMetrics)}

	s.mux = http.NewServeMux()
	s.mux.Handle("/", s.instrument("index", false, s.handleIndex))
	s.mux.Handle("/healthz", s.instrument("healthz", false, s.handleHealthz))
	s.mux.Handle("/healthz/live", s.instrument("healthz_live", false, s.handleLiveness))
	s.mux.Handle("/metrics", s.instrument("metrics", false, s.handleMetrics))
	s.mux.Handle("/v1/nn", s.instrument("nn", true, s.handleNN))
	s.mux.Handle("/v1/knn", s.instrument("knn", true, s.handleKNN))
	s.mux.Handle("/v1/candidates", s.instrument("candidates", true, s.handleCandidates))
	s.mux.Handle("/v1/nn/batch", s.instrument("nn_batch", true, s.handleNNBatch))
	s.mux.Handle("/v1/knn/batch", s.instrument("knn_batch", true, s.handleKNNBatch))
	s.mux.Handle("/v1/candidates/batch", s.instrument("candidates_batch", true, s.handleCandidatesBatch))
	s.mux.Handle("/v1/insert", s.instrument("insert", true, s.handleInsert))
	s.mux.Handle("/v1/insert/batch", s.instrument("insert_batch", true, s.handleInsertBatch))
	s.mux.Handle("/v1/delete", s.instrument("delete", true, s.handleDelete))
	// Not admission-limited: snapshot transfers are long-lived bulk streams
	// and the segment stream long-polls — neither should hold (or be shed
	// by) a query admission slot. 404 until a source is installed.
	s.mux.Handle("/v1/repl/", s.instrument("repl", false, s.handleRepl))
	if cfg.ReplSource != nil {
		s.replSrc.Store(cfg.ReplSource)
	}

	s.hs = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		// Socket reads are bounded separately from the admission deadline:
		// RequestTimeout governs queue wait, this bounds slow-loris bodies.
		ReadTimeout:    cfg.RequestTimeout + 25*time.Second,
		IdleTimeout:    2 * time.Minute,
		MaxHeaderBytes: 16 << 10,
	}
	return s
}

// index returns the served index, or nil while the server is not ready.
func (s *Server) index() Index {
	if b, ok := s.ixv.Load().(*ixBox); ok {
		return b.ix
	}
	return nil
}

// SetIndex installs the index and flips the server ready: readiness
// reports 200 and query/mutation endpoints start serving. Call after
// recovery (snapshot load + WAL replay + AttachWAL) completes.
func (s *Server) SetIndex(ix Index) {
	s.ixv.Store(&ixBox{ix: ix})
	if ix != nil {
		s.reason.Store("")
	}
}

// SetNotReady updates the reason readiness reports while the index is
// absent (e.g. "loading snapshot", "replaying wal"). It does not un-ready
// a server that already has an index.
func (s *Server) SetNotReady(reason string) {
	if s.index() == nil {
		s.reason.Store(reason)
	}
}

// SetReplSource enables primary mode after construction: the serve command
// can only build the Source once the WAL is attached, which happens long
// after the server starts listening for liveness probes.
func (s *Server) SetReplSource(src *replica.Source) {
	if src != nil {
		s.replSrc.Store(src)
	}
}

// replSource returns the installed replication source, or nil.
func (s *Server) replSource() *replica.Source {
	src, _ := s.replSrc.Load().(*replica.Source)
	return src
}

// SetRecovery records what startup recovery did, for /healthz and /metrics.
func (s *Server) SetRecovery(info RecoveryInfo) { s.recovery.Store(&info) }

// recoveryInfo returns the recorded recovery, or nil.
func (s *Server) recoveryInfo() *RecoveryInfo {
	info, _ := s.recovery.Load().(*RecoveryInfo)
	return info
}

// Handler returns the route table (for tests and embedding; it carries the
// same middleware as the listening server).
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds the address (":8080", "127.0.0.1:0", …) without serving yet,
// so callers can learn the resolved Addr before traffic starts.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address (empty before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until ctx is canceled, then shuts down
// gracefully: the listener closes, in-flight requests get up to
// ShutdownGrace to finish, and — if snapshots are configured — a final
// snapshot is written. It returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context) error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.hs.Serve(s.ln) }()

	snapDone := make(chan struct{})
	snapCtx, stopSnap := context.WithCancel(context.Background())
	go func() {
		defer close(snapDone)
		s.snapshotLoop(snapCtx)
	}()

	select {
	case err := <-serveErr:
		stopSnap()
		<-snapDone
		return err
	case <-ctx.Done():
	}
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	err := s.hs.Shutdown(shCtx) // stops accepting, drains in-flight requests
	stopSnap()
	<-snapDone
	if s.cfg.SnapshotPath != "" {
		if serr := s.writeSnapshot(); serr != nil && err == nil {
			err = serr
		}
	}
	<-serveErr // Serve has returned ErrServerClosed by now
	return err
}

// snapshotLoop periodically persists the index while serving.
func (s *Server) snapshotLoop(ctx context.Context) {
	if s.cfg.SnapshotPath == "" {
		return
	}
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.writeSnapshot(); err != nil {
				fmt.Fprintf(os.Stderr, "server: snapshot: %v\n", err)
			}
		}
	}
}

// writeSnapshot saves the index to SnapshotPath via tmp+rename+dir-fsync,
// so readers of the path never observe a torn file and the rename survives
// a crash. Save holds the index read lock: queries proceed concurrently,
// writers wait for the duration of the dump.
//
// When the index has a WAL, the snapshot doubles as log compaction: the
// log rotates FIRST (so every record not covered by this snapshot lands in
// a surviving segment), then the snapshot is published, then the sealed
// pre-rotation segments are discarded. A failure after publish leaves
// extra segments behind — replayed as stale duplicates, never lost data.
func (s *Server) writeSnapshot() error {
	ix := s.index()
	if ix == nil {
		return errors.New("server: snapshot before index is loaded")
	}

	var (
		cut       uint64
		cuts      []uint64
		compacter func() error
	)
	switch w := ix.(type) {
	case shardWALRotator:
		var err error
		if cuts, err = w.RotateWAL(); err != nil {
			s.m.snapshotErrs.Add(1)
			return fmt.Errorf("server: rotating wal: %w", err)
		}
		compacter = func() error { return w.CompactWAL(cuts) }
	case walRotator:
		var err error
		if cut, err = w.RotateWAL(); err != nil {
			s.m.snapshotErrs.Add(1)
			return fmt.Errorf("server: rotating wal: %w", err)
		}
		compacter = func() error { return w.CompactWAL(cut) }
	}

	err := iofault.WriteAtomic(s.cfg.FS, s.cfg.SnapshotPath, ix.Save)
	if err != nil {
		s.m.snapshotErrs.Add(1)
		return err
	}
	if compacter != nil {
		if err := compacter(); err != nil {
			// The snapshot itself is durable; stale segments merely remain.
			fmt.Fprintf(os.Stderr, "server: wal compaction after snapshot: %v\n", err)
		}
	}
	s.m.snapshots.Add(1)
	s.m.lastSnapshotNanos.Store(time.Now().UnixNano())
	return nil
}
