package serve

import (
	"testing"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/core"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/xdcr"
)

// tinySpec is the laptop-scale geometry the serving tests run on.
func tinySpec() core.SystemSpec {
	s := core.ReducedSpec()
	s.ElemX, s.ElemY = 8, 8
	s.FocalTheta, s.FocalPhi, s.FocalDepth = 9, 3, 10
	s.DepthLambda = 60
	return s
}

func tinyRequest() SessionRequest {
	return SessionRequest{
		Spec:   tinySpec(),
		Config: core.SessionConfig{Window: xdcr.Hann, Cached: true, CacheBudget: -1},
		Arch:   ArchTableFree,
	}
}

// runFrame beamforms one frame of per-transmit echoes into a fresh volume.
func runFrame(sess *beamform.Session, tx ...[]rf.EchoBuffer) (*beamform.Volume, error) {
	v := sess.NewVolume()
	return v, sess.Run(v, beamform.Frame{Bufs: tx})
}

func tinyFrame(t testing.TB, s core.SystemSpec) []rf.EchoBuffer {
	t.Helper()
	bufs, err := rf.Synthesize(rf.Config{
		Arr: s.Array(), Conv: s.Converter(), Pulse: rf.NewPulse(s.Fc, s.B),
		BufSamples: s.EchoBufferSamples(),
	}, rf.PointPhantom(geom.Vec3{Z: 0.6 * s.Depth()}))
	if err != nil {
		t.Fatal(err)
	}
	return bufs
}

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	base := tinyRequest()
	same := tinyRequest()
	if base.Fingerprint() != same.Fingerprint() {
		t.Error("identical requests must share a fingerprint")
	}
	variants := map[string]func(*SessionRequest){
		"spec":      func(r *SessionRequest) { r.Spec.FocalDepth++ },
		"arch":      func(r *SessionRequest) { r.Arch = ArchExact },
		"window":    func(r *SessionRequest) { r.Config.Window = xdcr.Rect },
		"precision": func(r *SessionRequest) { r.Config.Precision = beamform.PrecisionInt16 },
		"budget":    func(r *SessionRequest) { r.Config.CacheBudget = 1024 },
		"uncached":  func(r *SessionRequest) { r.Config.Cached = false },
		"transmits": func(r *SessionRequest) {
			r.Config.Transmits = r.Spec.AxialTransmits(2)
		},
	}
	for name, mutate := range variants {
		v := tinyRequest()
		mutate(&v)
		if v.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s variant must change the fingerprint", name)
		}
	}
}
