package serve

import (
	"net/url"
	"testing"
)

// FuzzParseOptions throws arbitrary query strings at the request grammar
// every transport shares (the POST query, the stream hello, the router's
// re-issue). ParseOptions must never panic, and any query it accepts must
// survive the router's round trip: EncodeQuery succeeds ("everything
// ParseOptions itself produced encodes"), the canonical string parses back,
// keys the same warm session and shard (Fingerprint), schedules the same
// way (Deadline, Lane) and is a fixed point of the encoding. The committed
// corpus (testdata/fuzz/FuzzParseOptions) seeds the four bench workloads'
// queries, the golden fingerprint vectors', the removed values the grammar
// must refuse (precision=float32|wide, fmt=raw) and the deadline_ms values
// whose duration overflows.
func FuzzParseOptions(f *testing.F) {
	f.Fuzz(func(t *testing.T, query string) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		opts, err := ParseOptions(q, nil)
		if err != nil {
			return
		}
		enc, err := opts.EncodeQuery()
		if err != nil {
			t.Fatalf("accepted %q does not encode: %v", query, err)
		}
		q2, err := url.ParseQuery(enc)
		if err != nil {
			t.Fatalf("canonical %q of %q does not parse as a query: %v", enc, query, err)
		}
		back, err := ParseOptions(q2, nil)
		if err != nil {
			t.Fatalf("canonical %q of %q is refused: %v", enc, query, err)
		}
		if back.Fingerprint() != opts.Fingerprint() {
			t.Fatalf("%q re-keys through %q:\n got %s\nwant %s", query, enc, back.Fingerprint(), opts.Fingerprint())
		}
		if back.Request.Deadline != opts.Request.Deadline || back.Request.Lane != opts.Request.Lane {
			t.Fatalf("%q re-schedules through %q: deadline %v lane %v, want %v %v", query, enc,
				back.Request.Deadline, back.Request.Lane, opts.Request.Deadline, opts.Request.Lane)
		}
		if again, err := back.EncodeQuery(); err != nil || again != enc {
			t.Fatalf("canonical %q of %q re-encodes to %q (%v)", enc, query, again, err)
		}
	})
}
