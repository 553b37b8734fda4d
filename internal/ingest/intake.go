package ingest

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"

	"nodesentry/internal/obs"
)

// DefaultMaxBodyBytes is the default bound on one body the serving tiers
// read: a push, a scrape, or a peer's control-plane or fan-in response.
const DefaultMaxBodyBytes = 8 << 20

// IntakeConfig parameterizes the push endpoint.
type IntakeConfig struct {
	// MaxBodyBytes caps a request body, before and after gzip
	// decompression (default DefaultMaxBodyBytes). Oversized requests get
	// 413.
	MaxBodyBytes int64
	// Metrics, when non-nil, receives request/byte counters.
	Metrics *obs.Registry
	// Logger, when non-nil, receives rejected-request warnings.
	Logger *slog.Logger
}

func (c IntakeConfig) withDefaults() IntakeConfig {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	return c
}

// Intake is the push half of the gateway: POST /push accepts Prometheus
// text exposition or JSONL sample batches (see Line), optionally
// gzipped, and feeds the shared Decoder. Read/write deadlines belong to
// the enclosing http.Server (cmd/sentryd sets them); the handler
// enforces the size limits.
type Intake struct {
	dec *Decoder
	cfg IntakeConfig

	reqOK  *obs.Counter
	reqErr *obs.Counter
	bytes  *obs.Counter
}

// NewIntake builds the handler around a decoder.
func NewIntake(dec *Decoder, cfg IntakeConfig) *Intake {
	cfg = cfg.withDefaults()
	r := cfg.Metrics
	return &Intake{
		dec:    dec,
		cfg:    cfg,
		reqOK:  r.Counter("nodesentry_intake_requests_total", "status", "ok"),
		reqErr: r.Counter("nodesentry_intake_requests_total", "status", "error"),
		bytes:  r.Counter("nodesentry_intake_bytes_total"),
	}
}

// Handler returns the intake mux: POST /push plus a GET /healthz
// liveness probe (the obs server carries the full /metrics surface).
func (in *Intake) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/push", in.handlePush)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	return mux
}

func (in *Intake) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		in.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("ingest: %s not allowed", r.Method))
		return
	}
	body, err := in.readBody(w, r)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) || errors.Is(err, errBodyTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		in.fail(w, status, err)
		return
	}
	in.bytes.Add(int64(len(body)))
	var n int
	if isJSONL(r.Header.Get("Content-Type"), body) {
		n, err = in.dec.PushJSONL(strings.NewReader(body))
	} else {
		n, err = in.dec.PushExposition(body)
	}
	if err != nil {
		in.fail(w, http.StatusBadRequest, err)
		return
	}
	in.reqOK.Inc()
	w.WriteHeader(http.StatusAccepted)
	// The 202 status is already on the wire; a failed body write is the
	// client's problem, not ours.
	_, _ = fmt.Fprintf(w, "accepted %d samples\n", n)
}

// errBodyTooLarge marks a body — pushed (after gzip inflation) or
// scraped — that ran past its limit.
var errBodyTooLarge = errors.New("ingest: body exceeds limit")

// ReadLimited reads src to its end as a string — the form both decoders
// take, so the body is never copied again — and fails, never truncates,
// once src yields more than limit bytes; it never reads more than limit+1.
// Intake, Scraper and the coordinator tier's peer reads all bound their
// bodies here.
func ReadLimited(src io.Reader, limit int64) (string, error) {
	var b strings.Builder
	n, err := io.Copy(&b, io.LimitReader(src, limit+1))
	if err != nil {
		return "", err
	}
	if n > limit {
		return "", errBodyTooLarge
	}
	return b.String(), nil
}

// readBody reads the (possibly gzipped) request body under
// MaxBodyBytes, applied to both the compressed and decompressed sizes
// so a gzip bomb cannot expand past the limit.
func (in *Intake) readBody(w http.ResponseWriter, r *http.Request) (string, error) {
	var src io.Reader = http.MaxBytesReader(w, r.Body, in.cfg.MaxBodyBytes)
	if strings.Contains(r.Header.Get("Content-Encoding"), "gzip") {
		gz, err := gzip.NewReader(src)
		if err != nil {
			return "", fmt.Errorf("ingest: bad gzip body: %w", err)
		}
		defer func() { _ = gz.Close() }() // body fully consumed below; close error is inert
		src = gz
	}
	return ReadLimited(src, in.cfg.MaxBodyBytes)
}

// isJSONL sniffs the batch format: an explicit JSON content type wins,
// else a body whose first byte is '{' is JSONL (exposition lines start
// with a metric name or '#').
func isJSONL(contentType, body string) bool {
	return strings.Contains(contentType, "json") ||
		strings.HasPrefix(strings.TrimLeft(body, " \t\r\n"), "{")
}

func (in *Intake) fail(w http.ResponseWriter, status int, err error) {
	in.reqErr.Inc()
	if in.cfg.Logger != nil {
		in.cfg.Logger.Warn("push rejected", "status", status, "err", err)
	}
	http.Error(w, err.Error(), status)
}
