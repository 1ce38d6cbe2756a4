package serve

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"mime"
	"net/http"
	"strconv"
	"time"

	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// Observability: the request-path metrics in the obs default registry.
// serve.shed_total is the load-shedding contract's witness; the histogram
// and gauge reuse the obs instruments the sweeps already export.
var (
	mRequests   = obs.NewCounter("serve.requests_total")
	mErrors5xx  = obs.NewCounter("serve.responses_5xx")
	mShed       = obs.NewCounter("serve.shed_total")
	mPanics     = obs.NewCounter("serve.handler_panics")
	mReqSeconds = obs.NewHistogram("serve.request_seconds", nil)
	gInflight   = obs.NewGauge("serve.inflight")
)

// routeMetrics are the per-route RED instruments (rate, errors, duration),
// registered once per route when the middleware stack is built, under
// serve.route.<route>.*. Error counters are named by taxonomy kind and
// registered on first use — the kind set is small and data-dependent.
type routeMetrics struct {
	requests *obs.Counter
	seconds  *obs.Histogram
}

func newRouteMetrics(route string) routeMetrics {
	return routeMetrics{
		requests: obs.NewCounter("serve.route." + route + ".requests_total"),
		seconds:  obs.NewHistogram("serve.route."+route+".request_seconds", nil),
	}
}

func routeErrors(route, kind string) *obs.Counter {
	return obs.NewCounter("serve.route." + route + ".errors." + kind)
}

// statusWriter records the response status for metrics and the access log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// requestID resolves the request's correlation id: an incoming X-Request-Id
// (cut to 64 bytes) wins, so a caller's id threads through; otherwise 16
// random bytes as 32 lowercase hex chars. The resolved id is echoed in the
// X-Request-Id response header and stamped on the access-log line.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		if len(id) > 64 {
			id = id[:64]
		}
		return id
	}
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; a fixed fallback
		// keeps request ids flowing rather than failing the request.
		return "00000000000000000000000000000001"
	}
	return hex.EncodeToString(b[:])
}

// apiError is the wire form of every failure: the message plus the guard
// taxonomy kind, so clients branch on a stable enum instead of parsing
// prose.
type apiError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// Serve-level rejections outside the guard taxonomy: an oversized request
// body (413, kind=too-large) and a POST with a non-JSON Content-Type (415,
// kind=unsupported-media). Both are client errors the model layers never
// see.
var (
	ErrTooLarge         = errors.New("request body too large")
	ErrUnsupportedMedia = errors.New("unsupported content type")
)

// errKind names an error for the wire: serve sentinels get their own kinds,
// everything else falls through to the guard taxonomy.
func errKind(err error) string {
	switch {
	case errors.Is(err, ErrShed):
		return "shed"
	case errors.Is(err, ErrTooLarge):
		return "too-large"
	case errors.Is(err, ErrUnsupportedMedia):
		return "unsupported-media"
	}
	return guard.Kind(err)
}

// handlerFunc is a model endpoint: it returns the response body (marshaled
// as JSON) and an optional non-200 success status. Failures return a guard
// taxonomy error; the middleware maps it to the HTTP status.
type handlerFunc func(r *http.Request) (status int, body any, err error)

// handle wraps a model endpoint with the full robustness stack, outermost
// first: request identity + RED metrics + access logging, admission control
// (lim is nil for cheap endpoints, and for the study route, whose handler
// checks the body before it takes a slot), per-request deadline propagation,
// panic recovery, error→status mapping, and watchdog accounting.
func (s *Server) handle(endpoint string, lim *limiter, h handlerFunc) http.Handler {
	rm := newRouteMetrics(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mRequests.Inc()
		rm.requests.Inc()
		start := time.Now()
		gInflight.Add(1)

		rid := requestID(r)
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Request-Id", rid)

		var kind string // error disposition ("" = success), for RED + log
		defer func() {
			gInflight.Add(-1)
			sec := time.Since(start).Seconds()
			mReqSeconds.Observe(sec)
			rm.seconds.Observe(sec)
			if kind != "" {
				routeErrors(endpoint, kind).Inc()
			}
			s.logAccess(r, endpoint, rid, sw.status(), kind, sec)
		}()
		fail := func(err error) {
			kind = errKind(err)
			s.writeError(sw, r, endpoint, err)
		}

		if r.Method == http.MethodPost {
			if err := checkContentType(r); err != nil {
				fail(err)
				return
			}
			// MaxBytesReader (unlike a bare LimitReader) closes the
			// connection on overflow and surfaces a typed error decodeBody
			// maps to 413 — a client streaming an oversized body cannot
			// tie up the decoder.
			r.Body = http.MaxBytesReader(sw, r.Body, maxBodyBytes)
		}

		if lim != nil {
			release, err := lim.acquire(r.Context())
			if err != nil {
				fail(err)
				return
			}
			defer release()
		}

		ctx, cancel := s.requestContext(r)
		defer cancel()
		ctx, span := obs.Start(ctx, "serve."+endpoint, obs.String("request_id", rid))
		defer span.End()

		var status int
		var body any
		err := func() (err error) {
			defer guard.RecoverTo(&err)
			status, body, err = h(r.WithContext(ctx))
			return err
		}()
		if err != nil {
			if errors.Is(err, guard.ErrCandidatePanic) {
				mPanics.Inc()
			}
			fail(err)
			return
		}
		s.wd.ok()
		if status == 0 {
			status = http.StatusOK
		}
		writeJSON(sw, status, body)
	})
}

// logAccess emits one structured access-log line (when the server has an
// access logger): request id, route, status, error disposition, latency,
// and a slow flag at or above slowRequest.
func (s *Server) logAccess(r *http.Request, endpoint, rid string, status int, kind string, sec float64) {
	if s.accessLog == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("request_id", rid),
		slog.String("route", endpoint),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Float64("duration_ms", sec*1e3),
	}
	if kind != "" {
		attrs = append(attrs, slog.String("kind", kind))
	}
	if sec >= slowRequest.Seconds() {
		attrs = append(attrs, slog.Bool("slow", true))
	}
	s.accessLog.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

// requestContext derives the handler context: requestTimeout, tightened
// (never loosened) by a positive ?timeout_ms= query parameter. The
// milliseconds are compared before they are converted, so a huge value
// cannot overflow the Duration into a negative one. The resulting deadline
// rides into the model layers, and a client disconnect cancels it through
// r.Context().
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	d := requestTimeout
	ms, err := strconv.Atoi(r.URL.Query().Get("timeout_ms"))
	if err == nil && ms > 0 && int64(ms) < d.Milliseconds() {
		d = time.Duration(ms) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// checkContentType rejects POSTs whose declared Content-Type is not JSON.
// An absent Content-Type is tolerated — the body decoder is the arbiter
// then — but an explicit wrong declaration (a form post, a file upload) is
// a client bug better reported as 415 than as a JSON parse error.
func checkContentType(r *http.Request) error {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return fmt.Errorf("%w: malformed Content-Type %q", ErrUnsupportedMedia, ct)
	}
	if mt != "application/json" {
		return fmt.Errorf("%w: %q (this API speaks application/json)", ErrUnsupportedMedia, mt)
	}
	return nil
}

// writeError renders a failure: ErrShed → 429 + Retry-After, ErrTooLarge →
// 413, ErrUnsupportedMedia → 415, everything else through HTTPStatus,
// with the kind= taxonomy in the body. 5xx responses feed the watchdog;
// shed and 4xx responses do not (the server is behaving as designed).
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, endpoint string, err error) {
	status := HTTPStatus(err)
	switch {
	case errors.Is(err, ErrShed):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", s.retryAfter())
		mShed.Inc()
	case errors.Is(err, ErrTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrUnsupportedMedia):
		status = http.StatusUnsupportedMediaType
	}
	if status >= 500 {
		mErrors5xx.Inc()
		s.wd.fail()
		slog.Warn("serve: request failed", "endpoint", endpoint,
			"status", status, "kind", errKind(err), "err", err)
	}
	writeJSON(w, status, apiError{Error: err.Error(), Kind: errKind(err)})
}

// retryAfter hints how long a shed client should back off: the admission
// deadline rounded up to a whole second (the time a queued slot is most
// likely to take to free), plus a uniform 0..retryAfterJitter seconds of
// dither so a burst of shed clients does not reconverge on the same retry
// tick and shed again in lockstep.
func (s *Server) retryAfter() string {
	secs := int(s.cfg.AdmissionTimeout / time.Second)
	if s.cfg.AdmissionTimeout%time.Second > 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs + rand.Intn(retryAfterJitter+1))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Debug("serve: response encode failed", "err", err)
	}
}
