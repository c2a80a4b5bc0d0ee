package hfx

import (
	"hfxmd/internal/basis"
	"hfxmd/internal/integrals"
	"hfxmd/internal/screen"
)

// Task is one unit of schedulable HFX work: a bra pair index into the
// screened pair list plus a contiguous ket-pair range [KetLo, KetHi).
// Only canonical combinations (ket index ≤ bra index) are generated, so
// every unordered quartet is computed exactly once.
type Task struct {
	Bra            int
	KetLo, KetHi   int
	Cost           float64
	QuartetsInTask int
}

// GenerateTasks chunks the screened pair list into tasks whose predicted
// cost is at most granule (one bra pair never splits below a single ket).
// A granule of 0 picks a default that yields ~64 tasks per modern core on
// small systems while keeping millions of tasks available for the machine
// simulation on large ones. Without an engine it prices every primitive
// quartet of a quartet — the exact kernel; the builders run BuilderTasks.
func GenerateTasks(set *basis.Set, pairs []screen.Pair, cm CostModel, granule float64) []Task {
	return generateTasks(newPricer(cm, set, pairs), granule)
}

// BuilderTasks is GenerateTasks priced the way a builder on (eng, scr)
// evaluates under scr's threshold: nothing for a quartet that fails the
// shell-level Schwarz test, and no primitive quartet below the
// primitive-level cut. It is the decomposition NewBuilder, NewDistBuilder
// and NewStealBuilder schedule, and what admission prices a job by.
func BuilderTasks(eng *integrals.Engine, scr *screen.Result, cm CostModel, granule float64) []Task {
	return generateTasks(newBuilderPricer(cm, eng, scr), granule)
}

func generateTasks(pr *pricer, granule float64) []Task {
	if granule <= 0 {
		granule = 250_000 // ~0.25 ms of quartet work per task
	}
	var tasks []Task
	for i := range pr.classes {
		lo := 0
		var acc float64
		var count int
		for j := 0; j <= i; j++ {
			c := pr.quartet(i, j)
			if acc+c > granule && count > 0 {
				tasks = append(tasks, Task{Bra: i, KetLo: lo, KetHi: j, Cost: acc, QuartetsInTask: count})
				lo, acc, count = j, 0, 0
			}
			acc += c
			count++
		}
		if count > 0 {
			tasks = append(tasks, Task{Bra: i, KetLo: lo, KetHi: i + 1, Cost: acc, QuartetsInTask: count})
		}
	}
	return tasks
}

// TaskClasses maps each task to its work class: the angular momenta of
// the bra pair's shells, packed as La·16+Lb. Quartet cost scales steeply
// with the bra's angular structure (primitive counts, block sizes, the
// recurrence depth of the Boys chain), so the bra class is the natural
// granularity for steal.Calibrator correction factors.
func TaskClasses(set *basis.Set, pairs []screen.Pair, tasks []Task) []int {
	classes := make([]int, len(tasks))
	for i := range tasks {
		bra := pairs[tasks[i].Bra]
		classes[i] = set.Shells[bra.A].L<<4 | set.Shells[bra.B].L
	}
	return classes
}

// TaskCosts extracts the cost array for the scheduler.
func TaskCosts(tasks []Task) []float64 {
	costs := make([]float64, len(tasks))
	for i := range tasks {
		costs[i] = tasks[i].Cost
	}
	return costs
}

// TotalQuartets returns the number of canonical quartets covered.
func TotalQuartets(tasks []Task) int {
	n := 0
	for i := range tasks {
		n += tasks[i].QuartetsInTask
	}
	return n
}
