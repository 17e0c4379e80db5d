package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/wal"
)

// errRebootstrap signals that the follower's positions are unusable (the
// primary restarted, compacted past the tail point, or the replayed stream
// contradicted the snapshot) and the only correct continuation is a fresh
// snapshot. It is a normal lifecycle event, not a failure.
var errRebootstrap = errors.New("replica: re-bootstrap required")

// bootstrapTimeout bounds one snapshot fetch and load.
const bootstrapTimeout = 5 * time.Minute

// Config configures a Follower.
type Config struct {
	// Primary is the primary's base URL (e.g. http://127.0.0.1:8080); the
	// follower appends /v1/repl/... .
	Primary string
	// Load builds a fresh index from a snapshot stream.
	Load func(r io.Reader) (Replica, error)
	// OnReplica is called with each freshly bootstrapped index, before any
	// records are applied to it — the server installs it for read traffic
	// here (an atomic swap; the previous index keeps serving until then).
	OnReplica func(Replica)
	// PollWait is the long-poll duration asked of the stream endpoint.
	// Default 1s.
	PollWait time.Duration
	// RetryBase/RetryMax bound the jittered exponential backoff applied to
	// failed requests and failed bootstraps. Defaults 100ms / 3s.
	RetryBase, RetryMax time.Duration
	// Logf, if set, receives progress lines (bootstraps, re-bootstraps,
	// retried errors).
	Logf func(format string, args ...any)
}

func (c *Config) normalize() {
	if c.PollWait <= 0 {
		c.PollWait = time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 3 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// logState is one log's tail position. Each running tail goroutine is the
// sole writer of its log's state; f.mu orders those writes against Stats.
type logState struct {
	seg       uint64 // segment currently being fetched
	applyOff  int64  // cursor position: whole records applied up to here
	fetchOff  int64  // raw bytes fetched (applyOff + bytes buffered in the cursor)
	processed uint64 // records fed through ApplyLogRecord since bootstrap
	base      uint64 // primary's DurableAppends at the bootstrap cut
	seen      uint64 // latest DurableAppends header observed
}

func (st *logState) lag() uint64 {
	// Records in segments ≥ the cut are exactly the primary-lifetime
	// appends after the rotate; processed can transiently exceed seen−base
	// (a fetch observes bytes before the next header refresh), so clamp.
	if st.seen <= st.base {
		return 0
	}
	if d := st.seen - st.base; d > st.processed {
		return d - st.processed
	}
	return 0
}

// LogPosition is one log's apply position for Stats.
type LogPosition struct {
	Log       int
	Segment   uint64
	Offset    int64
	Processed uint64
}

// Stats is a point-in-time view of replication progress.
type Stats struct {
	// Bootstrapped is true once a snapshot has been loaded and installed.
	Bootstrapped bool
	// Bootstraps counts snapshot loads (1 = initial; more = re-bootstraps).
	Bootstraps uint64
	// LagRecords is the number of durable primary records not yet applied,
	// summed over logs.
	LagRecords uint64
	// LagSeconds is how long the follower has been behind (0 when caught
	// up).
	LagSeconds float64
	// Positions are the per-log apply positions.
	Positions []LogPosition
	// LastError is the most recent retried error ("" after clean progress).
	LastError string
}

// Follower replicates from a primary: bootstrap from its snapshot, then
// tail every log's shipped segments, applying records through the
// idempotent replay path while the loaded index serves read-only queries.
type Follower struct {
	cfg Config
	// client issues the HTTP requests: no global timeout (stream requests
	// long-poll); per-request contexts bound every call.
	client *http.Client
	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{}

	mu           sync.Mutex
	rep          Replica
	boot         string
	logs         []*logState
	bootstraps   uint64
	bootstrapped bool
	lastCaught   time.Time
	lastErr      string
}

// NewFollower validates the config; Start begins replicating.
func NewFollower(cfg Config) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, errors.New("replica: follower needs a primary URL")
	}
	if cfg.Load == nil {
		return nil, errors.New("replica: follower needs a Load func")
	}
	cfg.normalize()
	ctx, cancel := context.WithCancel(context.Background())
	return &Follower{cfg: cfg, client: &http.Client{}, ctx: ctx, cancel: cancel, done: make(chan struct{})}, nil
}

// Start launches the replication loop.
func (f *Follower) Start() {
	go f.run()
}

// Stop tears the loop down and waits for it.
func (f *Follower) Stop() {
	f.cancel()
	<-f.done
}

// Stats reports replication progress.
func (f *Follower) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Stats{
		Bootstrapped: f.bootstrapped,
		Bootstraps:   f.bootstraps,
		LastError:    f.lastErr,
	}
	for i, ls := range f.logs {
		st.LagRecords += ls.lag()
		st.Positions = append(st.Positions, LogPosition{
			Log: i, Segment: ls.seg, Offset: ls.applyOff, Processed: ls.processed,
		})
	}
	if st.LagRecords > 0 && !f.lastCaught.IsZero() {
		st.LagSeconds = time.Since(f.lastCaught).Seconds()
	}
	return st
}

func (f *Follower) run() {
	defer close(f.done)
	backoff := f.cfg.RetryBase
	for f.ctx.Err() == nil {
		err := f.cycle()
		if f.ctx.Err() != nil {
			return
		}
		if errors.Is(err, errRebootstrap) {
			f.cfg.Logf("replica: re-bootstrapping: %v", err)
			backoff = f.cfg.RetryBase // a deliberate restart, not a failure
		} else if err != nil {
			f.setErr(err)
			f.cfg.Logf("replica: cycle failed, retrying in %v: %v", backoff, err)
			sleepJitter(f.ctx, backoff)
			if backoff *= 2; backoff > f.cfg.RetryMax {
				backoff = f.cfg.RetryMax
			}
		}
	}
}

// cycle runs one bootstrap-then-tail generation. It returns when any log's
// tail demands a re-bootstrap or fails fatally.
func (f *Follower) cycle() error {
	boot, rep, states, err := f.bootstrap()
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.rep, f.boot, f.logs = rep, boot, states
	f.bootstraps++
	f.bootstrapped = true
	f.lastCaught = time.Now()
	f.lastErr = ""
	f.mu.Unlock()
	if f.cfg.OnReplica != nil {
		f.cfg.OnReplica(rep)
	}
	f.cfg.Logf("replica: bootstrapped from %s (boot %s, %d logs)", f.cfg.Primary, boot, len(states))

	ctx, cancel := context.WithCancel(f.ctx)
	defer cancel()
	errc := make(chan error, len(states))
	for i := range states {
		go func(i int) { errc <- f.tail(ctx, rep, boot, i, states[i]) }(i)
	}
	first := <-errc
	cancel()
	for range states[1:] {
		<-errc
	}
	return first
}

// bootstrap fetches and loads the primary's snapshot, returning the boot
// id, the fresh index, and the per-log start positions (the rotation cuts).
func (f *Follower) bootstrap() (string, Replica, []*logState, error) {
	ctx, cancel := context.WithTimeout(f.ctx, bootstrapTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Primary+"/v1/repl/snapshot", nil)
	if err != nil {
		return "", nil, nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return "", nil, nil, fmt.Errorf("snapshot request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return "", nil, nil, fmt.Errorf("snapshot request: status %d", resp.StatusCode)
	}
	boot := resp.Header.Get(headerBoot)
	if boot == "" {
		return "", nil, nil, errors.New("snapshot response lacks a boot id")
	}
	n, err := strconv.Atoi(resp.Header.Get(headerLogs))
	if err != nil || n <= 0 {
		return "", nil, nil, fmt.Errorf("bad %s header %q", headerLogs, resp.Header.Get(headerLogs))
	}
	cuts, err := splitUints(resp.Header.Get(headerCuts))
	if err != nil {
		return "", nil, nil, fmt.Errorf("bad %s header: %w", headerCuts, err)
	}
	appends, err := splitUints(resp.Header.Get(headerAppends))
	if err != nil {
		return "", nil, nil, fmt.Errorf("bad %s header: %w", headerAppends, err)
	}
	if len(cuts) != n || len(appends) != n {
		return "", nil, nil, fmt.Errorf("header arity mismatch: %d logs, %d cuts, %d appends", n, len(cuts), len(appends))
	}
	rep, err := f.cfg.Load(resp.Body)
	if err != nil {
		return "", nil, nil, fmt.Errorf("loading snapshot: %w", err)
	}
	if rep.NumLogs() != n {
		return "", nil, nil, fmt.Errorf("snapshot has %d logs, primary advertises %d", rep.NumLogs(), n)
	}
	states := make([]*logState, n)
	for i := range states {
		states[i] = &logState{seg: cuts[i], base: appends[i], seen: appends[i]}
	}
	return boot, rep, states, nil
}

// streamHdr is the metadata a stream response carries alongside its bytes.
type streamHdr struct {
	boot    string
	sealed  bool
	size    int64
	appends uint64
}

// tail follows one log: fetch bytes from the current position, apply whole
// records, advance across sealed segment boundaries, long-poll the active
// tip. Network errors back off and retry in place; protocol signals (boot
// change, 410, 416, contradiction) return errRebootstrap.
func (f *Follower) tail(ctx context.Context, rep Replica, boot string, log int, st *logState) error {
	cur := &wal.Cursor{}
	backoff := f.cfg.RetryBase
	for ctx.Err() == nil {
		code, hdr, body, err := f.fetchStream(ctx, log, st.seg, st.fetchOff)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			f.setErr(err)
			sleepJitter(ctx, backoff)
			if backoff *= 2; backoff > f.cfg.RetryMax {
				backoff = f.cfg.RetryMax
			}
			continue
		}
		backoff = f.cfg.RetryBase
		if hdr.boot != boot {
			return fmt.Errorf("%w: primary boot changed %s -> %s", errRebootstrap, boot, hdr.boot)
		}
		switch code {
		case http.StatusOK, http.StatusNoContent:
		case http.StatusGone:
			return fmt.Errorf("%w: log %d segment %d compacted away", errRebootstrap, log, st.seg)
		case http.StatusRequestedRangeNotSatisfiable:
			return fmt.Errorf("%w: log %d position %d/%d rejected", errRebootstrap, log, st.seg, st.fetchOff)
		default:
			f.setErr(fmt.Errorf("stream log %d: status %d", log, code))
			sleepJitter(ctx, backoff)
			continue
		}

		applied, torn, err := ingest(cur, body, hdr.sealed, func(rec wal.Record) error {
			_, aerr := rep.ApplyLogRecord(log, rec)
			return aerr
		})
		if err != nil {
			// The primary's durable bytes failed to parse: either the
			// stream or the snapshot is not what we think it is. Never
			// guess — start over.
			return fmt.Errorf("%w: log %d segment %d: %v", errRebootstrap, log, st.seg, err)
		}

		f.mu.Lock()
		st.fetchOff += int64(len(body))
		st.applyOff = cur.Offset()
		st.processed += uint64(applied)
		st.seen = hdr.appends
		caught := true
		for _, ls := range f.logs {
			if ls.lag() > 0 {
				caught = false
				break
			}
		}
		if caught {
			f.lastCaught = time.Now()
		}
		exhausted := hdr.sealed && st.fetchOff >= hdr.size
		if torn || exhausted {
			if rem := cur.Buffered(); rem > 0 {
				f.cfg.Logf("replica: log %d segment %d: discarding %d-byte torn tail", log, st.seg, rem)
			}
			st.seg++
			st.fetchOff, st.applyOff = 0, 0
			cur = &wal.Cursor{}
		}
		f.mu.Unlock()
	}
	return ctx.Err()
}

// ingest feeds one fetched chunk through the cursor and applies every whole
// record. sealed governs how a definitive parse failure is treated: in a
// sealed segment it is a torn tail (legal — skip the remainder, exactly as
// crash recovery's Replay does); in the active segment's durable prefix it
// is corruption and the error is returned. The cursor's whole-record
// guarantee makes this safe against a transfer cut at ANY byte offset: the
// apply position only ever advances by complete records.
func ingest(cur *wal.Cursor, data []byte, sealed bool, apply func(wal.Record) error) (applied int, torn bool, err error) {
	cur.Feed(data)
	for {
		rec, ok, perr := cur.Next()
		if perr != nil {
			if sealed {
				return applied, true, nil
			}
			return applied, false, perr
		}
		if !ok {
			return applied, false, nil
		}
		if aerr := apply(rec); aerr != nil {
			return applied, false, aerr
		}
		applied++
	}
}

// fetchStream issues one stream request and reads its body.
func (f *Follower) fetchStream(ctx context.Context, log int, seq uint64, off int64) (int, streamHdr, []byte, error) {
	waitMS := int(f.cfg.PollWait / time.Millisecond)
	url := fmt.Sprintf("%s/v1/repl/stream?log=%d&seq=%d&off=%d&wait=%d",
		f.cfg.Primary, log, seq, off, waitMS)
	rctx, cancel := context.WithTimeout(ctx, f.cfg.PollWait+30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, streamHdr{}, nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, streamHdr{}, nil, fmt.Errorf("stream log %d: %w", log, err)
	}
	defer resp.Body.Close()
	hdr := streamHdr{boot: resp.Header.Get(headerBoot)}
	hdr.sealed, _ = strconv.ParseBool(resp.Header.Get(headerSealed))
	hdr.size, _ = strconv.ParseInt(resp.Header.Get(headerSize), 10, 64)
	hdr.appends, _ = strconv.ParseUint(resp.Header.Get(headerAppends), 10, 64)
	var body []byte
	if resp.StatusCode == http.StatusOK {
		body, err = io.ReadAll(io.LimitReader(resp.Body, streamChunkBytes+1))
		if err != nil {
			// A connection torn mid-body still delivered a usable prefix;
			// the cursor absorbs it and the next fetch resumes behind it.
			return resp.StatusCode, hdr, body, nil
		}
	} else {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	}
	return resp.StatusCode, hdr, body, nil
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.lastErr = err.Error()
	f.mu.Unlock()
}

// sleepJitter sleeps d/2 .. d (full jitter on the top half), cut short by
// ctx. The jitter decorrelates follower reconnect stampedes after a
// primary restart.
func sleepJitter(ctx context.Context, d time.Duration) {
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}
