package experiments

import (
	"fmt"
	"strings"

	"hyperprof/internal/model"
	"hyperprof/internal/soc"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// This file renders each experiment's output as the textual equivalent of
// the paper's table or figure, for the command-line tools and EXPERIMENTS.md.

// RenderTable1 renders the storage-to-storage ratios.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Storage-to-Storage Ratios (RAM PiB : SSD PiB : HDD PiB)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-9s %s\n", r.Platform, r.Rendered)
	}
	return b.String()
}

// RenderFigure2 renders the end-to-end breakdown per platform and group.
func RenderFigure2(fig map[taxonomy.Platform][]trace.GroupStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: End-to-End Execution Time Breakdown\n")
	fmt.Fprintf(&b, "  %-9s %-18s %7s %6s %6s %7s\n", "Platform", "Group", "Queries", "CPU%", "IO%", "Remote%")
	for _, p := range taxonomy.Platforms() {
		for _, g := range fig[p] {
			fmt.Fprintf(&b, "  %-9s %-18s %6.1f%% %5.1f%% %5.1f%% %6.1f%%\n",
				p, g.Group, g.QueryFrac*100, g.CPUFrac*100, g.IOFrac*100, g.RemoteFrac*100)
		}
	}
	return b.String()
}

// RenderFigure3 renders the broad cycle breakdown.
func RenderFigure3(fig map[taxonomy.Platform]map[taxonomy.Broad]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: High-Level Application-Level Cycle Breakdown\n")
	fmt.Fprintf(&b, "  %-9s %13s %16s %12s\n", "Platform", "Core Compute", "Datacenter Tax", "System Tax")
	for _, p := range taxonomy.Platforms() {
		m := fig[p]
		fmt.Fprintf(&b, "  %-9s %12.1f%% %15.1f%% %11.1f%%\n",
			p, m[taxonomy.CoreCompute]*100, m[taxonomy.DatacenterTax]*100, m[taxonomy.SystemTax]*100)
	}
	return b.String()
}

// renderCategoryFig renders a per-category breakdown figure.
func renderCategoryFig(title string, fig map[taxonomy.Platform]map[taxonomy.Category]float64, order func(taxonomy.Platform) []taxonomy.Category) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, p := range taxonomy.Platforms() {
		fmt.Fprintf(&b, "  %s:\n", p)
		for _, cat := range order(p) {
			if f, ok := fig[p][cat]; ok {
				fmt.Fprintf(&b, "    %-20s %5.1f%%\n", cat, f*100)
			}
		}
	}
	return b.String()
}

// RenderFigure4 renders the core-compute breakdown.
func RenderFigure4(fig map[taxonomy.Platform]map[taxonomy.Category]float64) string {
	return renderCategoryFig("Figure 4: Core Compute Execution Breakdown", fig, taxonomy.CoreComputeFor)
}

// RenderFigure5 renders the datacenter-tax breakdown.
func RenderFigure5(fig map[taxonomy.Platform]map[taxonomy.Category]float64) string {
	return renderCategoryFig("Figure 5: Datacenter Tax Execution Breakdown", fig,
		func(taxonomy.Platform) []taxonomy.Category { return taxonomy.DatacenterTaxes() })
}

// RenderFigure6 renders the system-tax breakdown.
func RenderFigure6(fig map[taxonomy.Platform]map[taxonomy.Category]float64) string {
	return renderCategoryFig("Figure 6: System Tax Execution Breakdown", fig,
		func(taxonomy.Platform) []taxonomy.Category { return taxonomy.SystemTaxes() })
}

// RenderTables67 renders Tables 6 and 7 together.
func RenderTables67(ch *Characterization) string {
	var b strings.Builder
	t6 := Table6(ch)
	fmt.Fprintf(&b, "Table 6: Platform IPC and MPKI Statistics\n")
	fmt.Fprintf(&b, "  %-9s %5s %5s %5s %5s %5s %5s %7s\n", "Platform", "IPC", "BR", "L1I", "L2I", "LLC", "ITLB", "DTLBLD")
	for _, p := range taxonomy.Platforms() {
		s := t6[p]
		fmt.Fprintf(&b, "  %-9s %5.2f %5.1f %5.1f %5.1f %5.1f %5.2f %7.1f\n",
			p, s.IPC, s.BR, s.L1I, s.L2I, s.LLC, s.ITLB, s.DTLBLD)
	}
	t7 := Table7(ch)
	fmt.Fprintf(&b, "\nTable 7: IPC and MPKI by Broad Class (CC/DCT/ST)\n")
	fmt.Fprintf(&b, "  %-9s %-16s %5s %5s %5s %5s %5s %5s %7s\n", "Platform", "Class", "IPC", "BR", "L1I", "L2I", "LLC", "ITLB", "DTLBLD")
	for _, p := range taxonomy.Platforms() {
		for _, broad := range taxonomy.Broads() {
			s := t7[p][broad]
			fmt.Fprintf(&b, "  %-9s %-16s %5.2f %5.1f %5.1f %5.1f %5.1f %5.2f %7.1f\n",
				p, broad, s.IPC, s.BR, s.L1I, s.L2I, s.LLC, s.ITLB, s.DTLBLD)
		}
	}
	return b.String()
}

// RenderFigure9 renders the synchronous on-chip upper-bound sweep.
func RenderFigure9(fig map[taxonomy.Platform][]Fig9Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: Synchronous On-Chip Upper Bound (end-to-end speedup)\n")
	fmt.Fprintf(&b, "  %-9s %8s %12s %14s\n", "Platform", "Accel x", "With Dep", "Without Dep")
	for _, p := range taxonomy.Platforms() {
		for _, pt := range fig[p] {
			fmt.Fprintf(&b, "  %-9s %8.0f %11.2fx %13.2fx\n", p, pt.Speedup, pt.WithDep, pt.WithoutDep)
		}
	}
	return b.String()
}

// RenderFigure10 renders the grouped upper-bound sweep.
func RenderFigure10(fig map[taxonomy.Platform][]Fig10Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: Grouped Synchronous On-Chip Upper Bounds (remote work and IO removed)\n")
	for _, p := range taxonomy.Platforms() {
		for _, s := range fig[p] {
			fmt.Fprintf(&b, "  %-9s %-18s", p, s.Group)
			for _, pt := range s.Points {
				fmt.Fprintf(&b, " %0.0fx:%.2f", pt.Speedup, pt.WithoutDep)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// RenderFigure13 renders the accelerator feature upper bounds.
func RenderFigure13(fig map[taxonomy.Platform][]Fig13Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: Accelerator Feature Upper Bounds (additive accelerators, %dx each)\n", Fig13Speedup)
	for _, p := range taxonomy.Platforms() {
		fmt.Fprintf(&b, "  %s:\n", p)
		fmt.Fprintf(&b, "    %-22s %12s %12s %12s %12s\n", "Accelerated set",
			model.SyncOffChip, model.SyncOnChip, model.AsyncOnChip, model.ChainedOnChip)
		for _, row := range fig[p] {
			fmt.Fprintf(&b, "    %-22s %11.2fx %11.2fx %11.2fx %11.2fx\n", row.Label,
				row.Speedups[model.SyncOffChip], row.Speedups[model.SyncOnChip],
				row.Speedups[model.AsyncOnChip], row.Speedups[model.ChainedOnChip])
		}
	}
	return b.String()
}

// RenderFigure14 renders the setup-time sweep.
func RenderFigure14(fig map[taxonomy.Platform][]Fig14Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14: Setup Time Sweep (8x per accelerator)\n")
	for _, p := range taxonomy.Platforms() {
		fmt.Fprintf(&b, "  %s:\n", p)
		fmt.Fprintf(&b, "    %-10s %12s %12s %12s %12s\n", "Setup (s)",
			model.SyncOffChip, model.SyncOnChip, model.AsyncOnChip, model.ChainedOnChip)
		for _, pt := range fig[p] {
			fmt.Fprintf(&b, "    %-10.0e %11.3fx %11.3fx %11.3fx %11.3fx\n", pt.SetupSeconds,
				pt.Speedups[model.SyncOffChip], pt.Speedups[model.SyncOnChip],
				pt.Speedups[model.AsyncOnChip], pt.Speedups[model.ChainedOnChip])
		}
	}
	return b.String()
}

// RenderFigure15 renders the prior-accelerator comparison.
func RenderFigure15(fig map[taxonomy.Platform][]Fig15Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15: Prior Accelerator Comparison (Sync/Chained + On-Chip)\n")
	for _, p := range taxonomy.Platforms() {
		fmt.Fprintf(&b, "  %s:\n", p)
		for _, row := range fig[p] {
			fmt.Fprintf(&b, "    %-24s sync %5.2fx  chained %5.2fx\n", row.Label, row.Sync, row.Chained)
		}
	}
	return b.String()
}

// RenderTable8 renders the model-validation table.
func RenderTable8(t8 *soc.Table8) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 8: Model Validation Results (%d messages, %d wire bytes)\n", t8.Messages, t8.WireBytes)
	fmt.Fprintf(&b, "  Measured SoC results\n")
	fmt.Fprintf(&b, "    Proto. Ser.  t_sub %10v   s_sub %6.1fx   t_setup %10v\n", t8.ProtoSubTime, t8.ProtoSpeedup, t8.ProtoSetup)
	fmt.Fprintf(&b, "    SHA3         t_sub %10v   s_sub %6.1fx   t_setup %10v\n", t8.SHA3SubTime, t8.SHA3Speedup, t8.SHA3Setup)
	fmt.Fprintf(&b, "    Non-Accel. CPU t_sub %v\n", t8.NonAccelCPU)
	fmt.Fprintf(&b, "    Proto. Ser./SHA3 B_i = 0, t_dep = 0 (on-chip, no IO)\n")
	fmt.Fprintf(&b, "    Measured chained execution t'_e2e  %v\n", t8.MeasuredChained)
	fmt.Fprintf(&b, "  Model estimated results\n")
	fmt.Fprintf(&b, "    Modeled chained execution  t'_e2e  %v\n", t8.ModeledChained)
	fmt.Fprintf(&b, "  Difference: %.1f%% (paper reports 6.1%%)\n", t8.DiffFrac*100)
	return b.String()
}

// RenderTables23 renders the taxonomy definitions of Tables 2 and 3.
func RenderTables23() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Datacenter Tax Category Descriptions\n")
	for _, c := range taxonomy.DatacenterTaxes() {
		fmt.Fprintf(&b, "  %-20s %s\n", c, taxonomy.Descriptions[c])
	}
	fmt.Fprintf(&b, "\nTable 3: System Tax Category Descriptions\n")
	for _, c := range taxonomy.SystemTaxes() {
		fmt.Fprintf(&b, "  %-20s %s\n", c, taxonomy.Descriptions[c])
	}
	return b.String()
}
