package serve

import (
	"net/url"
	"testing"
)

// TestFingerprintGoldenVectors freezes SessionRequest.Fingerprint outputs
// byte for byte. Fingerprints are the cluster's shard keys and the warm
// scheduler's session keys: a release that changes any of these strings
// re-shards every geometry in a live cluster and cold-starts every warm
// store during a rolling upgrade. The strings below are a compatibility
// contract (DESIGN.md §2.2) — if this test fails, you have broken it;
// do not update the vectors without a deliberate, documented migration.
func TestFingerprintGoldenVectors(t *testing.T) {
	vectors := []struct {
		query string
		want  string
	}{
		{
			// The default request: reduced Table I geometry, tablefree
			// architecture, full-residency cache.
			query: "",
			want:  "spec{c=1540 fc=4e+06 b=4e+06 elem=16x16 pitch=0.5 fov=73x73 depth=500 fs=3.2e+07 focal=33x33x100} arch=tablefree win=hann prec=float64 cached=true budget=-1 wide=false",
		},
		{
			query: "spec=paper",
			want:  "spec{c=1540 fc=4e+06 b=4e+06 elem=100x100 pitch=0.5 fov=73x73 depth=500 fs=3.2e+07 focal=128x128x1000} arch=tablefree win=hann prec=float64 cached=true budget=-1 wide=false",
		},
		// Vectors 3 and 4 keyed the float32 and wide precisions. Those
		// precisions were removed, not re-keyed: a query naming them is now
		// refused, so the vectors name the surviving i16 precision instead.
		{
			// Every config axis off its default, including the axial
			// compounding set (transmit origins participate in the key).
			query: "arch=tablesteer&precision=i16&window=rect&budget=1048576&transmits=4",
			want:  "spec{c=1540 fc=4e+06 b=4e+06 elem=16x16 pitch=0.5 fov=73x73 depth=500 fs=3.2e+07 focal=33x33x100} arch=tablesteer win=rect prec=i16 cached=true budget=1048576 wide=false tx(0,0,-0.0038499999999999997) tx(0,0,-0.006416666666666666) tx(0,0,-0.008983333333333333) tx(0,0,-0.011550000000000001)",
		},
		{
			// Grid overrides.
			query: "spec=reduced&elemx=12&elemy=12&ftheta=25&fphi=25&fdepth=80&arch=exact&precision=i16",
			want:  "spec{c=1540 fc=4e+06 b=4e+06 elem=12x12 pitch=0.5 fov=73x73 depth=500 fs=3.2e+07 focal=25x25x80} arch=exact win=hann prec=i16 cached=true budget=-1 wide=false",
		},
		{
			// Uncached, compounded — and lane/deadline deliberately absent
			// from the key: scheduling hints must never re-shard a geometry.
			query: "transmits=2&budget=none&lane=bulk&deadline_ms=250",
			want:  "spec{c=1540 fc=4e+06 b=4e+06 elem=16x16 pitch=0.5 fov=73x73 depth=500 fs=3.2e+07 focal=33x33x100} arch=tablefree win=hann prec=float64 cached=false budget=-1 wide=false tx(0,0,-0.0038499999999999997) tx(0,0,-0.01155)",
		},
	}
	for _, v := range vectors {
		q, err := url.ParseQuery(v.query)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := ParseOptions(q, nil)
		if err != nil {
			t.Fatalf("%q: %v", v.query, err)
		}
		if got := opts.Fingerprint(); got != v.want {
			t.Errorf("fingerprint of %q changed — this breaks cluster shard keys on live rings.\n got: %s\nwant: %s",
				v.query, got, v.want)
		}
	}

	// Lane/deadline invariance, stated directly.
	base, _ := ParseOptions(url.Values{}, nil)
	hinted, _ := ParseOptions(url.Values{"lane": {"bulk"}, "deadline_ms": {"17"}}, nil)
	if base.Fingerprint() != hinted.Fingerprint() {
		t.Error("lane/deadline leaked into the fingerprint")
	}
}
