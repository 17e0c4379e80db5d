package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/nncell"
	"repro/internal/vec"
	"repro/internal/wal"
)

var startTime = time.Now()

// Wire types. Queries are POSTed as JSON; the single-point endpoints also
// accept GET with ?point=0.1,0.2(&k=3) for curl-friendly exploration.
type queryRequest struct {
	Point []float64 `json:"point"`
	K     int       `json:"k,omitempty"`
}

type batchRequest struct {
	Points [][]float64 `json:"points"`
	K      int         `json:"k,omitempty"`
}

type neighborResponse struct {
	ID    int     `json:"id"`
	Dist2 float64 `json:"dist2"`
}

type nnResponse struct {
	ID    int       `json:"id"`
	Dist2 float64   `json:"dist2"`
	Point []float64 `json:"point"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeQuery parses a single-point request from either verb and validates
// the point against the index's dimensionality. A false return means the
// response was written.
func decodeQuery(w http.ResponseWriter, r *http.Request, dim int) (vec.Point, int, bool) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		raw := r.URL.Query().Get("point")
		if raw == "" {
			writeError(w, http.StatusBadRequest, "missing point parameter")
			return nil, 0, false
		}
		for _, part := range strings.Split(raw, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad point coordinate %q", part)
				return nil, 0, false
			}
			req.Point = append(req.Point, v)
		}
		if kRaw := r.URL.Query().Get("k"); kRaw != "" {
			k, err := strconv.Atoi(kRaw)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad k %q", kRaw)
				return nil, 0, false
			}
			req.K = k
		}
	case http.MethodPost:
		if !decodeBody(w, r, &req) {
			return nil, 0, false
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return nil, 0, false
	}
	q, err := validatePoint(req.Point, dim)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, 0, false
	}
	return q, req.K, true
}

// decodeBody unmarshals a JSON POST body into v, translating the body-cap
// error to 413. A false return means the response was written.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooLarge.Limit)
		return false
	}
	writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	return false
}

// validatePoint checks dimensionality and finiteness. Out-of-bounds points
// are fine — the index's clamp-and-verify fallback answers them exactly —
// but NaN/Inf coordinates would poison distance comparisons.
func validatePoint(coords []float64, dim int) (vec.Point, error) {
	if len(coords) != dim {
		return nil, fmt.Errorf("point has %d dimensions, index has %d", len(coords), dim)
	}
	for j, v := range coords {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("coordinate %d is not finite", j)
		}
	}
	return vec.Point(coords), nil
}

func (s *Server) clampK(w http.ResponseWriter, k int) (int, bool) {
	if k == 0 {
		k = 1
	}
	if k < 0 || k > s.cfg.MaxK {
		writeError(w, http.StatusBadRequest, "k must be in [1, %d]", s.cfg.MaxK)
		return 0, false
	}
	return k, true
}

// queryStatus maps a query-path error to an HTTP status: an empty index is
// the request asking for something that does not exist (404), a bad k is a
// caller error (400), anything else is the serving path failing (503).
func queryStatus(err error) int {
	switch {
	case errors.Is(err, nncell.ErrEmpty):
		return http.StatusNotFound
	case errors.Is(err, nncell.ErrBadK):
		return http.StatusBadRequest
	}
	return http.StatusServiceUnavailable
}

func (s *Server) handleNN(w http.ResponseWriter, r *http.Request, ix Index) {
	q, _, ok := decodeQuery(w, r, ix.Dim())
	if !ok {
		return
	}
	nb, err := ix.NearestNeighbor(q)
	if err != nil {
		writeError(w, queryStatus(err), "query failed: %v", err)
		return
	}
	p, _ := ix.Point(nb.ID)
	writeJSON(w, http.StatusOK, nnResponse{ID: nb.ID, Dist2: nb.Dist2, Point: p})
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request, ix Index) {
	q, k, ok := decodeQuery(w, r, ix.Dim())
	if !ok {
		return
	}
	k, ok = s.clampK(w, k)
	if !ok {
		return
	}
	nbs, err := ix.KNearest(q, k)
	if err != nil {
		writeError(w, queryStatus(err), "query failed: %v", err)
		return
	}
	out := make([]neighborResponse, len(nbs))
	for i, nb := range nbs {
		out[i] = neighborResponse{ID: nb.ID, Dist2: nb.Dist2}
	}
	writeJSON(w, http.StatusOK, struct {
		Neighbors []neighborResponse `json:"neighbors"`
	}{out})
}

func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request, ix Index) {
	q, _, ok := decodeQuery(w, r, ix.Dim())
	if !ok {
		return
	}
	bufp := s.cands.Get().(*[]int)
	ids := ix.CandidatesAppend((*bufp)[:0], q)
	writeJSON(w, http.StatusOK, struct {
		IDs   []int `json:"ids"`
		Count int   `json:"count"`
	}{ids, len(ids)})
	*bufp = ids[:0]
	s.cands.Put(bufp)
}

// decodeBatch parses a batch body and validates its points against the
// index's dimensionality. A false return means the response was written.
func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request, dim int) ([]vec.Point, int, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return nil, 0, false
	}
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return nil, 0, false
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return nil, 0, false
	}
	if len(req.Points) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d points over limit %d", len(req.Points), s.cfg.MaxBatch)
		return nil, 0, false
	}
	qs := make([]vec.Point, len(req.Points))
	for i, coords := range req.Points {
		q, err := validatePoint(coords, dim)
		if err != nil {
			writeError(w, http.StatusBadRequest, "point %d: %v", i, err)
			return nil, 0, false
		}
		qs[i] = q
	}
	return qs, req.K, true
}

// batchWorkers bounds the per-request fan-out so one batch cannot occupy
// every core while other requests wait (par.Do caps it at the batch size).
const batchWorkers = 4

func (s *Server) handleNNBatch(w http.ResponseWriter, r *http.Request, ix Index) {
	qs, _, ok := s.decodeBatch(w, r, ix.Dim())
	if !ok {
		return
	}
	nbs, err := ix.NearestNeighborBatch(qs, batchWorkers)
	if err != nil {
		writeError(w, queryStatus(err), "query failed: %v", err)
		return
	}
	out := make([]neighborResponse, len(nbs))
	for i, nb := range nbs {
		out[i] = neighborResponse{ID: nb.ID, Dist2: nb.Dist2}
	}
	writeJSON(w, http.StatusOK, struct {
		Results []neighborResponse `json:"results"`
	}{out})
}

func (s *Server) handleKNNBatch(w http.ResponseWriter, r *http.Request, ix Index) {
	qs, k, ok := s.decodeBatch(w, r, ix.Dim())
	if !ok {
		return
	}
	k, ok = s.clampK(w, k)
	if !ok {
		return
	}
	out := make([][]neighborResponse, len(qs))
	for i, q := range qs {
		nbs, err := ix.KNearest(q, k)
		if err != nil {
			writeError(w, queryStatus(err), "query %d failed: %v", i, err)
			return
		}
		res := make([]neighborResponse, len(nbs))
		for j, nb := range nbs {
			res[j] = neighborResponse{ID: nb.ID, Dist2: nb.Dist2}
		}
		out[i] = res
	}
	writeJSON(w, http.StatusOK, struct {
		Results [][]neighborResponse `json:"results"`
	}{out})
}

func (s *Server) handleCandidatesBatch(w http.ResponseWriter, r *http.Request, ix Index) {
	qs, _, ok := s.decodeBatch(w, r, ix.Dim())
	if !ok {
		return
	}
	out := make([][]int, len(qs))
	buf := make([]int, 0, 16)
	for i, q := range qs {
		buf = ix.CandidatesAppend(buf[:0], q)
		out[i] = append([]int(nil), buf...)
	}
	writeJSON(w, http.StatusOK, struct {
		Results [][]int `json:"results"`
	}{out})
}

// recoveryResponse is the replay summary /healthz exposes once recovery
// has run.
type recoveryResponse struct {
	SnapshotLoaded  bool    `json:"snapshot_loaded"`
	WALDir          string  `json:"wal_dir,omitempty"`
	ReplayedRecords uint64  `json:"replayed_records"`
	Applied         uint64  `json:"applied"`
	Stale           uint64  `json:"stale"`
	TornSegments    int     `json:"torn_segments"`
	DurationSec     float64 `json:"duration_seconds"`
}

func recoveryJSON(info *RecoveryInfo) *recoveryResponse {
	if info == nil {
		return nil
	}
	return &recoveryResponse{
		SnapshotLoaded:  info.SnapshotLoaded,
		WALDir:          info.WALDir,
		ReplayedRecords: info.Stats.Records,
		Applied:         info.Stats.Applied,
		Stale:           info.Stats.Stale,
		TornSegments:    info.Stats.TornSegments,
		DurationSec:     info.Stats.Duration.Seconds(),
	}
}

// replResponse is the replication section of /healthz: which role this
// node plays and, for a follower, how far behind it is.
type replResponse struct {
	Role         string  `json:"role"`
	BootID       string  `json:"boot_id,omitempty"`
	Bootstrapped bool    `json:"bootstrapped,omitempty"`
	Bootstraps   uint64  `json:"bootstraps,omitempty"`
	LagRecords   uint64  `json:"lag_records,omitempty"`
	LagSeconds   float64 `json:"lag_seconds,omitempty"`
	LastError    string  `json:"last_error,omitempty"`
}

// handleRepl forwards to the installed replication source; 404 on servers
// that are not primaries.
func (s *Server) handleRepl(w http.ResponseWriter, r *http.Request, _ Index) {
	src := s.replSource()
	if src == nil {
		writeError(w, http.StatusNotFound, "replication is not enabled on this server")
		return
	}
	src.ServeHTTP(w, r)
}

// replJSON builds the replication section, or nil when this server is
// neither a primary (ReplSource) nor a follower (Follower).
func (s *Server) replJSON() *replResponse {
	if src := s.replSource(); src != nil {
		return &replResponse{Role: "primary", BootID: src.BootID()}
	}
	f := s.cfg.Follower
	if f == nil {
		return nil
	}
	st := f.Stats()
	return &replResponse{
		Role:         "follower",
		Bootstrapped: st.Bootstrapped,
		Bootstraps:   st.Bootstraps,
		LagRecords:   st.LagRecords,
		LagSeconds:   st.LagSeconds,
		LastError:    st.LastError,
	}
}

// replUnready reports why follower replication blocks readiness ("" when it
// does not): not bootstrapped yet, or lag past the configured SLO. This is
// the signal the read router's health probes consume — a follower over SLO
// drops out of the read pool exactly as long as this returns non-empty.
func (s *Server) replUnready() string {
	f := s.cfg.Follower
	if f == nil {
		return ""
	}
	st := f.Stats()
	switch {
	case !st.Bootstrapped:
		return "follower bootstrapping"
	case s.cfg.LagSLORecords > 0 && st.LagRecords > s.cfg.LagSLORecords:
		return fmt.Sprintf("replication lag %d records exceeds SLO %d", st.LagRecords, s.cfg.LagSLORecords)
	case s.cfg.LagSLOSeconds > 0 && st.LagSeconds > s.cfg.LagSLOSeconds:
		return fmt.Sprintf("replication lag %.1fs exceeds SLO %.1fs", st.LagSeconds, s.cfg.LagSLOSeconds)
	}
	return ""
}

// handleHealthz is the READINESS probe: 503 with the loading reason while
// the index is absent (snapshot loading, WAL replaying, follower
// bootstrapping), 503 while a follower lags past its SLO, 200 with the
// index summary — and the recovery and replication reports, when there are
// any — once serving. Liveness is the separate /healthz/live.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, ix Index) {
	if ix == nil {
		reason, _ := s.reason.Load().(string)
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status      string            `json:"status"`
			Reason      string            `json:"reason"`
			Recovery    *recoveryResponse `json:"recovery,omitempty"`
			Replication *replResponse     `json:"replication,omitempty"`
		}{"loading", reason, recoveryJSON(s.recoveryInfo()), s.replJSON()})
		return
	}
	if reason := s.replUnready(); reason != "" {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status      string        `json:"status"`
			Reason      string        `json:"reason"`
			Replication *replResponse `json:"replication,omitempty"`
		}{"lagging", reason, s.replJSON()})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status      string            `json:"status"`
		Points      int               `json:"points"`
		Dim         int               `json:"dim"`
		UptimeSec   float64           `json:"uptime_seconds"`
		Recovery    *recoveryResponse `json:"recovery,omitempty"`
		Replication *replResponse     `json:"replication,omitempty"`
	}{"ok", ix.Len(), ix.Dim(), time.Since(startTime).Seconds(), recoveryJSON(s.recoveryInfo()), s.replJSON()})
}

// handleLiveness reports that the process is up and serving HTTP — nothing
// about the index. Restart-deciders probe this; traffic-routers probe
// /healthz.
func (s *Server) handleLiveness(w http.ResponseWriter, r *http.Request, _ Index) {
	writeJSON(w, http.StatusOK, struct {
		Status    string  `json:"status"`
		UptimeSec float64 `json:"uptime_seconds"`
	}{"ok", time.Since(startTime).Seconds()})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request, ix Index) {
	if r.URL.Path != "/" {
		writeError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if ix == nil {
		reason, _ := s.reason.Load().(string)
		fmt.Fprintf(w, "nncell query server: not ready (%s)\n", reason)
		return
	}
	fmt.Fprintf(w, `nncell query server (d=%d, %d points)

endpoints:
  GET|POST /v1/nn                  {"point":[...]}            -> nearest neighbor
  GET|POST /v1/knn                 {"point":[...],"k":K}      -> k nearest neighbors
  GET|POST /v1/candidates          {"point":[...]}            -> candidate cell ids
  POST     /v1/nn/batch            {"points":[[...],...]}     -> batched NN
  POST     /v1/knn/batch           {"points":[...],"k":K}     -> batched k-NN
  POST     /v1/candidates/batch    {"points":[[...],...]}     -> batched candidates
  POST     /v1/insert              {"point":[...]}            -> insert point, returns id
  POST     /v1/insert/batch        {"points":[[...],...]}     -> batched insert, returns ids
  POST     /v1/delete              {"id":N}                   -> delete point
  GET      /healthz                readiness (503 while loading)
  GET      /healthz/live           liveness
  GET      /metrics                Prometheus text format
`, ix.Dim(), ix.Len())
}

// mutationStatus maps an Insert/Delete error to an HTTP status: a latched
// WAL means durability is gone and the whole mutation path is down (503);
// anything else is a problem with this particular request (400).
func mutationStatus(err error) int {
	if errors.Is(err, wal.ErrUnavailable) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// mutable gates the mutation endpoints: a read-only follower answers 403
// so misdirected writes fail loudly instead of forking the replica from
// its primary (the read router forwards writes to the primary itself).
func (s *Server) mutable(w http.ResponseWriter) bool {
	if s.cfg.ReadOnly {
		writeError(w, http.StatusForbidden, "read-only follower: writes must go to the primary")
		return false
	}
	return true
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request, ix Index) {
	if !s.mutable(w) {
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	p, err := validatePoint(req.Point, ix.Dim())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := ix.Insert(p)
	if err != nil {
		writeError(w, mutationStatus(err), "insert failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID int `json:"id"`
	}{id})
}

// handleInsertBatch inserts a batch of points in one call — one write-lock
// acquisition and one WAL append per touched shard instead of one per
// point (see nncell.InsertBatch for the amortization and atomicity
// contract; against a sharded index atomicity is per shard).
func (s *Server) handleInsertBatch(w http.ResponseWriter, r *http.Request, ix Index) {
	if !s.mutable(w) {
		return
	}
	ps, _, ok := s.decodeBatch(w, r, ix.Dim())
	if !ok {
		return
	}
	ids, err := ix.InsertBatch(ps)
	if err != nil {
		writeError(w, mutationStatus(err), "insert batch failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		IDs   []int `json:"ids"`
		Count int   `json:"count"`
	}{ids, len(ids)})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, ix Index) {
	if !s.mutable(w) {
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req struct {
		ID *int `json:"id"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ID == nil {
		writeError(w, http.StatusBadRequest, "missing id")
		return
	}
	if err := ix.Delete(*req.ID); err != nil {
		writeError(w, mutationStatus(err), "delete failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		ID     int    `json:"id"`
	}{"deleted", *req.ID})
}
