package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict applies one end-to-end metric's bound to two sets, a the base
// and b the candidate: "worse" when b's median is worse than a's by
// more than the bound; "unresolved" when a set's own min–max spread is
// wider than the bound and the sets overlap (not every run of one side
// beats every run of the other); "ok" otherwise.
func verdict(d metricDef, a, b stat) string {
	sign := 1.0 // +1: lower is better
	if d.better == "higher" {
		sign = -1
	}
	tol := d.bound * a.Median
	worse := sign*(b.Median-a.Median) > tol
	spread := max(a.Max-a.Min, b.Max-b.Min)
	separated := a.Max < b.Min || b.Max < a.Min
	switch {
	case spread > tol && !separated:
		return "unresolved"
	case worse:
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per (end-to-end metric, workload), then
// the exact counters and digests, which must be equal. It fails when
// any row is worse or any exact value differs.
func compareFiles(pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-14s %-12s %-10s %14s %14s %8s  bound\n", "metric", "workload", "verdict", "base", "candidate", "change")
	for _, d := range endToEnd {
		for _, name := range workloadNames {
			sa, okA := a.Workloads[name].EndToEnd[d.name]
			sb, okB := b.Workloads[name].EndToEnd[d.name]
			if !okA || !okB {
				continue
			}
			v := verdict(d, sa, sb)
			note := ""
			if v == "unresolved" {
				note = fmt.Sprintf("  spread base [%.4g..%.4g] candidate [%.4g..%.4g], noisy runs %d/%d",
					sa.Min, sa.Max, sb.Min, sb.Max, a.Workloads[name].NoisyRuns, b.Workloads[name].NoisyRuns)
			}
			if v == "worse" {
				bad++
			}
			fmt.Printf("%-14s %-12s %-10s %14.6g %14.6g %+7.1f%%  %.0f%%%s\n", d.name, name, v,
				sa.Median, sb.Median, 100*ratio(sb.Median-sa.Median, sa.Median), 100*d.bound, note)
		}
	}
	for _, name := range workloadNames {
		wa, okA := a.Workloads[name]
		wb, okB := b.Workloads[name]
		if !okA || !okB {
			continue
		}
		exact := func(what, va, vb string) {
			v := "equal"
			if va != vb {
				v = "differs"
				bad++
			}
			fmt.Printf("%-32s %-12s %-8s %s %s\n", what, name, v, va, vb)
		}
		if a.Seed == b.Seed && a.Seconds == b.Seconds && a.Scale == b.Scale {
			exact("op_list_hash", wa.OpListHash, wb.OpListHash)
			exact("result_digest", wa.ResultDigest, wb.ResultDigest)
		}
		for _, c := range exactCounters {
			ca, okA := wa.PerLayer[c]
			cb, okB := wb.PerLayer[c]
			if okA && okB && (ca.Median != 0 || cb.Median != 0) { // 0 on both sides: not this workload's counter
				exact(c, fmt.Sprint(ca.Median), fmt.Sprint(cb.Median))
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse or different", bad)
	}
	return nil
}
