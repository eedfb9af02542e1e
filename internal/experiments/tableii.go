package experiments

import (
	"fmt"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/core"
	"ultrabeam/internal/fpga"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/report"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/tablefree"
	"ultrabeam/internal/tablesteer"
	"ultrabeam/internal/xdcr"
)

// TableIIRow is one architecture row of the paper's Table II.
type TableIIRow struct {
	Arch       string
	LUTFrac    float64
	RegFrac    float64
	BRAMFrac   float64
	ClockMHz   float64
	OffchipGBs float64 // 0 = none
	InaccAvg   float64 // |off samples|
	InaccMax   float64
	Tdelays    float64 // delays/s
	FrameRate  float64
	Channels   string
}

// TableIIResult carries the full synthesis comparison (experiment T2).
type TableIIResult struct {
	Device string
	Rows   []TableIIRow
}

// TableII regenerates the paper's Table II on the given device: the
// resource census from the fpga model, bandwidth from the streaming model,
// accuracy from quick Monte Carlo estimates on top of the measured
// algorithmic means, and throughput from the §IV/§V performance laws.
//
// tfStats supplies the TABLEFREE selection-error statistics (from
// TableFreeAccuracy); steerStats the TABLESTEER steering-error sweep. Pass
// quick results for fast regeneration — the resource side is closed-form.
func TableII(s core.SystemSpec, d fpga.Device, tf TableFreeAccuracyResult,
	steer SteerAccuracyResult) TableIIResult {

	res := TableIIResult{Device: d.Name}

	// TABLEFREE row.
	unit := fpga.PaperTableFreeUnit(s.NewTableFree().NumSegments())
	tfDesign := fpga.FitTableFree(d, unit, s.ElemX)
	tfUtil := tfDesign.Utilization(d)
	tfLaw := tablefree.Throughput{
		ClockHz: tfUtil.ClockHz, Units: s.Elements(),
		CyclesPerPointOverhead: tablefree.PaperOverhead,
	}
	res.Rows = append(res.Rows, TableIIRow{
		Arch:      "TABLEFREE",
		LUTFrac:   tfUtil.LUTFrac(d),
		RegFrac:   tfUtil.FFFrac(d),
		BRAMFrac:  0,
		ClockMHz:  tfUtil.ClockHz / 1e6,
		InaccAvg:  tf.Fixed.MeanAbsIndex,
		InaccMax:  float64(tf.Fixed.MaxAbsIndex),
		Tdelays:   tfLaw.PeakDelaysPerSecond(),
		FrameRate: tfLaw.FrameRate(s.Points()),
		Channels:  fmt.Sprintf("%d×%d", tfDesign.Channels, tfDesign.Channels),
	})

	// TABLESTEER rows (14- and 18-bit).
	algMeanSamples := steer.Stats.MeanAbsSecAcc * s.Fs
	algMaxSamples := steer.Stats.MaxAcceptedSamples(s.Fs)
	for _, bits := range []int{14, 18} {
		p := s.NewTableSteer(bits)
		arch := tablesteer.PaperArch(bits)
		stream := p.Stream(arch, 960)
		design := fpga.TableSteerDesign{
			WordBits: bits, Blocks: arch.Blocks, AddersPerBl: arch.Block.Adders(),
			CorrBits:   p.Corr.StorageBits(),
			BufferBits: arch.OnChipBufferBits(),
			OffchipBps: stream.OffchipBandwidth(),
		}
		util := design.Utilization(d)
		quant := tablesteer.ExpectedAbsQuantError(200_000, p.Cfg.RefFmt, p.Cfg.CorrFmt, 11)
		res.Rows = append(res.Rows, TableIIRow{
			Arch:       fmt.Sprintf("TABLESTEER-%db", bits),
			LUTFrac:    util.LUTFrac(d),
			RegFrac:    util.FFFrac(d),
			BRAMFrac:   util.BRAMFrac(d),
			ClockMHz:   util.ClockHz / 1e6,
			OffchipGBs: util.OffchipB / 1e9,
			InaccAvg:   algMeanSamples + quant,
			InaccMax:   algMaxSamples + 1,
			Tdelays:    arch.DelaysPerSecond(),
			FrameRate:  arch.FrameRate(s.Points(), s.Elements()),
			Channels:   fmt.Sprintf("%d×%d", s.ElemX, s.ElemY),
		})
	}
	return res
}

// Table renders T2 in the paper's column layout.
func (r TableIIResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Table II — %s synthesis results (model)", r.Device),
		"architecture", "LUTs", "regs", "BRAM", "clock", "offchip BW",
		"inaccuracy (avg/max)", "throughput", "frame rate", "channels")
	for _, row := range r.Rows {
		bw := "none"
		if row.OffchipGBs > 0 {
			bw = fmt.Sprintf("%.1f GB/s", row.OffchipGBs)
		}
		t.Add(row.Arch,
			report.Pct(row.LUTFrac), report.Pct(row.RegFrac), report.Pct(row.BRAMFrac),
			fmt.Sprintf("%.0f MHz", row.ClockMHz), bw,
			fmt.Sprintf("%.2f / %.0f", row.InaccAvg, row.InaccMax),
			fmt.Sprintf("%.2f Tdel/s", row.Tdelays/1e12),
			fmt.Sprintf("%.1f fps", row.FrameRate),
			row.Channels)
	}
	return t
}

// PaperTableIIRow returns the published row values for comparison.
func PaperTableIIRow(arch string) (TableIIRow, bool) {
	rows := map[string]TableIIRow{
		"TABLEFREE": {Arch: "TABLEFREE", LUTFrac: 1.00, RegFrac: 0.23, BRAMFrac: 0,
			ClockMHz: 167, OffchipGBs: 0, InaccAvg: 0.25, InaccMax: 2,
			Tdelays: 1.67e12, FrameRate: 7.8, Channels: "42×42"},
		"TABLESTEER-14b": {Arch: "TABLESTEER-14b", LUTFrac: 0.91, RegFrac: 0.25, BRAMFrac: 0.25,
			ClockMHz: 200, OffchipGBs: 4.1, InaccAvg: 1.55, InaccMax: 100,
			Tdelays: 3.3e12, FrameRate: 19.7, Channels: "100×100"},
		"TABLESTEER-18b": {Arch: "TABLESTEER-18b", LUTFrac: 1.00, RegFrac: 0.30, BRAMFrac: 0.25,
			ClockMHz: 200, OffchipGBs: 5.3, InaccAvg: 1.44, InaccMax: 100,
			Tdelays: 3.3e12, FrameRate: 19.7, Channels: "100×100"},
	}
	r, ok := rows[arch]
	return r, ok
}

// ImageQualityResult carries experiment Q1 (§II-A image-quality claim).
type ImageQualityResult struct {
	Metrics    map[string]beamform.PSFMetrics
	Similarity map[string]float64 // vs exact-delay volume
	PeakRatio  map[string]float64 // exact peak over the difference's RMS, dB (beamform.PeakSignalRatio)
}

// ImageQuality beamforms a point phantom through exact, TABLEFREE and
// TABLESTEER delays at reduced scale and compares the resulting images.
func ImageQuality(s core.SystemSpec, targetDepth float64) (ImageQualityResult, error) {
	res := ImageQualityResult{
		Metrics:    map[string]beamform.PSFMetrics{},
		Similarity: map[string]float64{},
		PeakRatio:  map[string]float64{},
	}
	target := geom.Vec3{Z: targetDepth}
	bufs, err := rf.Synthesize(rf.Config{
		Arr: s.Array(), Conv: s.Converter(), Pulse: rf.NewPulse(s.Fc, s.B),
		BufSamples: s.EchoBufferSamples(),
	}, rf.PointPhantom(target))
	if err != nil {
		return res, err
	}
	eng := s.NewBeamformer(xdcr.Hann, scan.NappeOrder)
	exactVol, err := eng.Beamform(s.NewExact(), bufs)
	if err != nil {
		return res, err
	}
	tf := s.NewTableFree()
	tf.UseFixed = true
	ts := s.NewTableSteer(18)
	ts.UseFixed = true
	volumes := map[string]*beamform.Volume{"exact": exactVol}
	if v, err := eng.Beamform(tf, bufs); err == nil {
		volumes[tf.Name()] = v
	} else {
		return res, err
	}
	if v, err := eng.Beamform(ts, bufs); err == nil {
		volumes[ts.Name()] = v
	} else {
		return res, err
	}
	for name, v := range volumes {
		m, err := beamform.MeasurePSF(v, s.Converter(), s.Fc)
		if err != nil {
			return res, err
		}
		res.Metrics[name] = m
		sim, err := beamform.Similarity(exactVol, v)
		if err != nil {
			return res, err
		}
		res.Similarity[name] = sim
		psr, err := beamform.PeakSignalRatio(exactVol, v)
		if err != nil {
			return res, err
		}
		res.PeakRatio[name] = psr
	}
	return res, nil
}

// Table renders Q1.
func (r ImageQualityResult) Table() *report.Table {
	t := report.NewTable("§II-A — image quality across delay architectures",
		"provider", "similarity vs exact", "difference below peak", "axial FWHM", "lateral FWHM")
	for _, name := range []string{"exact", "tablefree-fixed", "tablesteer-18b"} {
		m, ok := r.Metrics[name]
		if !ok {
			continue
		}
		t.Add(name, fmt.Sprintf("%.4f", r.Similarity[name]),
			fmt.Sprintf("%.1f dB", r.PeakRatio[name]),
			fmt.Sprintf("%.2f mm", m.AxialFWHMmm),
			fmt.Sprintf("%.2f°", m.LateralFWHMdeg))
	}
	return t
}
