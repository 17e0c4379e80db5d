package server

import (
	"context"
	"net/http"
	"time"
)

// statusWriter records the response code a handler chose, defaulting to 200
// for handlers that write the body directly.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// handler is an endpoint body. ix is the served index as instrument resolved
// it for this request; it is nil only on the unlimited endpoints, while the
// index loads.
type handler func(w http.ResponseWriter, r *http.Request, ix Index)

// instrument wraps a handler with the serving-layer middleware: in-flight
// accounting, admission control (for limited endpoints), the request
// deadline, the body-size cap, and per-endpoint latency/status metrics.
//
// It reads the served index once and hands that one value to the handler:
// SetIndex may swap the index mid-request (a follower re-bootstrap), and a
// handler that looked it up again could answer with one index's id and the
// other's coordinates.
func (s *Server) instrument(name string, limited bool, h handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.m.inflight.Add(1)
		defer s.m.inflight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)

		ix := s.index()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if limited {
			// Query/mutation endpoints need the index; during startup
			// recovery they shed with the same reason readiness reports.
			if ix == nil {
				reason, _ := s.reason.Load().(string)
				writeError(sw, http.StatusServiceUnavailable, "index not ready: %s", reason)
				s.m.record(name, sw.code, time.Since(start))
				return
			}
			if !s.acquire(ctx) {
				s.m.rejected.Add(1)
				writeError(sw, http.StatusServiceUnavailable, "server at capacity")
				s.m.record(name, sw.code, time.Since(start))
				return
			}
			defer s.release()
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		}
		h(sw, r, ix)
		s.m.record(name, sw.code, time.Since(start))
	})
}

// acquire takes an admission slot, waiting until the request deadline when
// the server is saturated. The fast path never touches the context.
func (s *Server) acquire(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *Server) release() { <-s.sem }
