// Package client is the Go SDK for the ultrabeam serving stack: one
// import that speaks both transports a usbeamd node — or a usbeamrouter
// fronting a cluster of them — accepts. Post runs the HTTP round trip
// (POST /v1/beamform with a self-describing wire frame); DialStream opens
// the persistent cine transport (one hello, then compounds pushed back to
// back, volumes read in order).
//
// Resilience is built in, because every server in the stack signals
// overload and drain deliberately: HTTP 503s retry with jittered
// exponential backoff honoring the server's Retry-After hint (derived
// from real queue depth, so it beats any client-side guess), and the
// stream sequence-tracks its compounds — a GOAWAY or dead connection
// redials and resends only the frames the server never answered, so
// nothing is beamformed twice. The example client
// (examples/serveclient), the CI smokes and the cluster router's backend
// legs all ride this package.
package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ultrabeam/internal/wire"
)

// DefaultRetries is the retry budget when Client.Retries is 0: dead
// connections and 503s back off and try again this many times.
const DefaultRetries = 5

// Client reaches one serving frontend — a usbeamd node or a usbeamrouter.
// The zero value is not usable; set Addr (and StreamAddr for DialStream).
type Client struct {
	// Addr is the HTTP host:port.
	Addr string
	// StreamAddr is the cine stream TCP host:port (DialStream target).
	StreamAddr string
	// HTTP overrides the HTTP client (nil = http.DefaultClient).
	HTTP *http.Client
	// Retries bounds retry loops (0 = DefaultRetries, negative = none).
	Retries int
	// Dial overrides the stream transport dialer — tests and proxies
	// inject connections here; nil dials TCP.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Logf, when set, receives one line per retry/reconnect decision.
	Logf func(format string, args ...any)
	// Sleep overrides backoff waiting (tests); nil = time.Sleep.
	Sleep func(d time.Duration)
}

func (c *Client) retries() int {
	if c.Retries == 0 {
		return DefaultRetries
	}
	if c.Retries < 0 {
		return 0
	}
	return c.Retries
}

func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Client) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Backoff picks the delay before retry attempt+1 (attempt counts from 0).
// A Retry-After hint from the server wins — it is derived from actual
// queue depth and drain rate; otherwise exponential from 100ms capped at
// 5s. Both get ±25% jitter so a fleet of clients bounced by one overload
// burst does not reconverge on the server in lockstep.
func Backoff(attempt int, retryAfter string) time.Duration {
	d := 100 * time.Millisecond << uint(min(attempt, 6))
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	if s, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && s > 0 {
		d = time.Duration(s) * time.Second
	}
	return time.Duration(float64(d) * (0.75 + rand.Float64()/2))
}

// HTTPError is a non-200, non-retried HTTP response.
type HTTPError struct {
	StatusCode int
	Body       string
	// RetryAfter carries the server's Retry-After header (seconds), if
	// any — on a 503 that exhausted the retry budget it is the server's
	// own estimate of when capacity returns.
	RetryAfter string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("client: HTTP %d: %s", e.StatusCode, e.Body)
}

// RemoteError is a per-compound in-band answer from the stream transport
// (the wire StatusError/StatusOverloaded family). It is
// definitive for its compound — the frame counted as answered and is
// never resent — and the stream stays usable.
type RemoteError struct {
	Status uint8
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("client: remote error (status %d): %s", e.Status, e.Msg)
}

// Overloaded reports whether err is backpressure pushback — the server
// refused the frame before decoding it; resend after backing off.
func (e *RemoteError) Overloaded() bool { return e.Status == wire.StatusOverloaded }

// Result is one decoded HTTP beamform response.
type Result struct {
	// Data is the volume or scanline, widened to float64 whatever the
	// negotiated response encoding.
	Data []float64
	// Encoding is the wire encoding the response arrived in (f64|f32).
	Encoding string
	// Header is the full response header set (X-Ultrabeam-Elapsed-Ms,
	// X-Ultrabeam-Encoding, ...).
	Header http.Header
}

// EncodeBody builds one POST /v1/beamform request body: a self-describing
// wire frame in format "i16", "f32" or "f64" (the default when empty; i16
// quantizes ADC-natively — pair it with precision=i16 in the query for the
// zero-conversion ingest). Returns the body and its Content-Type.
func EncodeBody(format string, elements, window int, samples []float64) ([]byte, string, error) {
	enc := wire.EncodingF64
	if format != "" {
		var err error
		if enc, err = wire.ParseEncoding(format); err != nil {
			return nil, "", err
		}
	}
	f, err := wire.NewFrame(enc, elements, window, 0, 1, samples)
	if err != nil {
		return nil, "", err
	}
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, f, 0); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), wire.ContentType, nil
}

// Post runs one beamform round trip: one frame of echo samples
// (element-major, elements×window) in, the beamformed volume or scanline
// out. query is the /v1/beamform parameter set ("spec=reduced&
// out=scanline&..."); format picks the body per EncodeBody. Dead
// connections and 503s retry with jittered backoff honoring Retry-After;
// a non-retryable status returns *HTTPError.
func (c *Client) Post(ctx context.Context, query, format string, elements, window int, samples []float64) (*Result, error) {
	body, ct, err := EncodeBody(format, elements, window, samples)
	if err != nil {
		return nil, err
	}
	u := "http://" + c.Addr + "/v1/beamform"
	if query != "" {
		u += "?" + query
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", ct)
		resp, err := c.httpc().Do(req)
		if err != nil {
			if ctx.Err() != nil || attempt >= c.retries() {
				return nil, fmt.Errorf("client: POST %s: %w", u, err)
			}
			d := Backoff(attempt, "")
			c.logf("client: %v; retrying in %v", err, d.Round(time.Millisecond))
			c.sleep(d)
			continue
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < c.retries() && ctx.Err() == nil {
			d := Backoff(attempt, resp.Header.Get("Retry-After"))
			c.logf("client: 503 %s; retrying in %v", strings.TrimSpace(string(raw)), d.Round(time.Millisecond))
			c.sleep(d)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return nil, &HTTPError{
				StatusCode: resp.StatusCode,
				Body:       strings.TrimSpace(string(raw)),
				RetryAfter: resp.Header.Get("Retry-After"),
			}
		}
		encName := resp.Header.Get("X-Ultrabeam-Encoding")
		data, derr := DecodeSamples(raw, encName)
		if derr != nil {
			return nil, derr
		}
		if encName == "" {
			encName = "f64"
		}
		return &Result{Data: data, Encoding: encName, Header: resp.Header}, nil
	}
}

// DecodeSamples parses a response body in the negotiated encoding ("f32",
// or "f64"/"" — the X-Ultrabeam-Encoding header value), widening to
// float64.
func DecodeSamples(raw []byte, enc string) ([]float64, error) {
	if enc == "f32" {
		if len(raw) == 0 || len(raw)%4 != 0 {
			return nil, fmt.Errorf("client: response is %d bytes, not an f32 sample array", len(raw))
		}
		out := make([]float64, len(raw)/4)
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
		}
		return out, nil
	}
	if len(raw) == 0 || len(raw)%8 != 0 {
		return nil, fmt.Errorf("client: response is %d bytes, not a float64 sample array", len(raw))
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out, nil
}
