package main

import (
	"flag"
	"fmt"
	"os"

	"ultrabeam/internal/core"
	"ultrabeam/internal/experiments"
	"ultrabeam/internal/fpga"
	"ultrabeam/internal/report"
)

// runTable2 is the table2 subcommand: the paper's Table II — the Virtex-7
// synthesis comparison of TABLEFREE, TABLESTEER-14b and TABLESTEER-18b —
// regenerated from the resource/timing model, or the §VI-B UltraScale
// projection with -device ultrascale. -paper prints the published rows
// after the modeled ones.
func runTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	device := fs.String("device", "virtex7", "target: virtex7|ultrascale")
	withPaper := fs.Bool("paper", false, "print the published rows too")
	fs.Parse(args)

	var d fpga.Device
	switch *device {
	case "virtex7":
		d = fpga.Virtex7VX1140T2()
	case "ultrascale":
		d = fpga.VirtexUltraScale()
	default:
		return usageErr{fmt.Errorf("unknown device %q", *device)}
	}

	spec := core.PaperSpec()
	tf := experiments.TableFreeAccuracy(spec, 16, 24)
	steer := experiments.SteerAccuracy(spec, coarseSweep)
	if err := experiments.TableII(spec, d, tf, steer).Table().Render(os.Stdout); err != nil {
		return err
	}
	if !*withPaper {
		return nil
	}
	fmt.Println()
	t := report.NewTable("Table II — published values (DATE'15)",
		"architecture", "LUTs", "regs", "BRAM", "clock", "offchip BW",
		"inaccuracy (avg/max)", "throughput", "frame rate", "channels")
	for _, arch := range []string{"TABLEFREE", "TABLESTEER-14b", "TABLESTEER-18b"} {
		r, _ := experiments.PaperTableIIRow(arch)
		bw := "none"
		if r.OffchipGBs > 0 {
			bw = fmt.Sprintf("%.1f GB/s", r.OffchipGBs)
		}
		t.Add(r.Arch, report.Pct(r.LUTFrac), report.Pct(r.RegFrac), report.Pct(r.BRAMFrac),
			fmt.Sprintf("%.0f MHz", r.ClockMHz), bw,
			fmt.Sprintf("%.2f / %.0f", r.InaccAvg, r.InaccMax),
			fmt.Sprintf("%.2f Tdel/s", r.Tdelays/1e12),
			fmt.Sprintf("%.1f fps", r.FrameRate), r.Channels)
	}
	return t.Render(os.Stdout)
}
