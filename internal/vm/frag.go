package vm

import (
	"fmt"
	"math/rand"
	"strings"

	"sipt/internal/memaddr"
)

// Fragmenter drives a Buddy allocator into a fragmented state, mimicking
// the memory-fragmentation tool of Kwon et al. that the paper uses for
// its Sec. VII-B sensitivity study. It allocates single frames in bulk
// and then frees a pseudo-random subset, leaving the free space scattered
// so that no high-order blocks remain.
type Fragmenter struct {
	buddy *Buddy
	rng   *rand.Rand
	held  []memaddr.PFN // frames the fragmenter itself keeps allocated
}

// NewFragmenter creates a fragmenter over the given allocator with a
// deterministic seed.
func NewFragmenter(b *Buddy, seed int64) *Fragmenter {
	return &Fragmenter{buddy: b, rng: rand.New(rand.NewSource(seed))}
}

// Held returns the number of frames the fragmenter is pinning.
func (f *Fragmenter) Held() int { return len(f.held) }

// FragmentTo fragments physical memory until the unusable free space
// index for order-j allocations exceeds target (e.g. 0.95 at HugeOrder,
// the paper's operating point), while leaving at least reserveFrames
// frames free for subsequent workload use. It returns the achieved
// index.
//
// Strategy: grab order-0 frames until free memory drops to the reserve
// plus slack, then free every other held frame. Alternating frees
// guarantee no two freed frames are buddies, so nothing coalesces and
// every free block is order 0.
func (f *Fragmenter) FragmentTo(j int, target float64, reserveFrames uint64) float64 {
	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		if f.buddy.UnusableFreeIndex(j) > target && f.buddy.FreeFrames() >= reserveFrames {
			break
		}
		// Allocation phase: drain memory completely in single frames so
		// no untouched contiguous block survives; the free phase then
		// rebuilds the reserve from isolated frames only.
		for f.buddy.FreeFrames() > 0 {
			pfn, ok := f.buddy.Alloc()
			if !ok {
				break
			}
			f.held = append(f.held, pfn)
		}
		// Shuffle so the freed subset is spatially random.
		f.rng.Shuffle(len(f.held), func(a, b int) {
			f.held[a], f.held[b] = f.held[b], f.held[a]
		})
		// Free phase: release isolated frames (skipping any whose buddy
		// is already free) until the reserve is met.
		kept := f.held[:0]
		for _, pfn := range f.held {
			if f.buddy.FreeFrames() >= reserveFrames {
				kept = append(kept, pfn)
				continue
			}
			if f.buddyIsFree(pfn) {
				kept = append(kept, pfn)
				continue
			}
			f.buddy.Free(pfn, 0)
		}
		f.held = kept
	}
	return f.buddy.UnusableFreeIndex(j)
}

// buddyIsFree reports whether the order-0 buddy of pfn is currently a
// free block (freeing pfn would coalesce into an order-1 block).
func (f *Fragmenter) buddyIsFree(pfn memaddr.PFN) bool {
	return f.buddy.isFree(uint64(pfn)^1, 0)
}

// Release frees every frame the fragmenter holds, restoring memory.
func (f *Fragmenter) Release() {
	for _, pfn := range f.held {
		f.buddy.Free(pfn, 0)
	}
	f.held = nil
}

// Scenario selects the memory-system operating condition for an
// experiment, matching the paper's Fig. 18 x-axis.
type Scenario int

const (
	// ScenarioNormal: fresh machine, THP on (the paper's default:
	// "a regularly used machine with an uptime of weeks" — our buddy
	// state after moderate churn).
	ScenarioNormal Scenario = iota
	// ScenarioFragmented: unusable free space index > 0.95 at huge-page
	// order before the workload runs; THP still on (but will fall back).
	ScenarioFragmented
	// ScenarioTHPOff: transparent huge pages disabled; buddy unfragmented.
	ScenarioTHPOff
	// ScenarioNoContig: THP off AND the IDB is denied cross-page reuse,
	// modelling zero contiguity beyond 4 KiB pages (paper: random delta
	// whenever an IDB entry sees a new page).
	ScenarioNoContig
)

// String returns the scenario label used in reports.
func (s Scenario) String() string {
	switch s {
	case ScenarioNormal:
		return "normal"
	case ScenarioFragmented:
		return "fragmented"
	case ScenarioTHPOff:
		return "thp-off"
	case ScenarioNoContig:
		return "no-contig"
	default:
		return "unknown"
	}
}

// THPEnabled reports whether the scenario runs with THP.
func (s Scenario) THPEnabled() bool {
	return s == ScenarioNormal || s == ScenarioFragmented
}

// Scenarios lists all operating conditions in Fig. 18 order.
func Scenarios() []Scenario {
	return []Scenario{ScenarioNormal, ScenarioFragmented, ScenarioTHPOff, ScenarioNoContig}
}

// ParseScenario inverts String: it resolves a user-supplied scenario
// label (case-insensitive) for the CLI flags and the siptd API.
func ParseScenario(s string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if strings.EqualFold(s, sc.String()) {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("vm: bad scenario %q (normal|fragmented|thp-off|no-contig)", s)
}

// System bundles a physical allocator prepared for a scenario.
type System struct {
	Phys     *Buddy
	Scenario Scenario
	frag     *Fragmenter
	colored  bool
}

// SetColored makes every address space created by NewSpace use
// page-colored allocation (the software alternative of Sec. II-D;
// coloring implies THP off).
func (s *System) SetColored(on bool) { s.colored = on }

// DefaultFrames is 16 GiB of 4 KiB frames, the paper's DRAM capacity.
const DefaultFrames = 16 << 30 / memaddr.PageBytes

// NewSystem builds a physical memory system in the given scenario.
// frames is the physical memory size in 4 KiB frames; workloadFrames is
// how much memory the workload(s) will need, kept free after
// fragmentation.
func NewSystem(scenario Scenario, frames, workloadFrames uint64, seed int64) *System {
	b := NewBuddy(frames)
	s := &System{Phys: b, Scenario: scenario}
	switch scenario {
	case ScenarioNormal, ScenarioTHPOff, ScenarioNoContig:
		// Light churn: allocate and free a few scattered blocks so the
		// free lists are not perfectly pristine (an uptime-of-weeks
		// machine), without destroying high-order availability.
		churn(b, seed)
	case ScenarioFragmented:
		s.frag = NewFragmenter(b, seed)
		s.frag.FragmentTo(HugeOrder, 0.95, workloadFrames+workloadFrames/4)
	}
	return s
}

// NewSpace creates an address space on this system with the scenario's
// THP setting (or page coloring, when enabled).
func (s *System) NewSpace() *AddressSpace {
	as := NewAddressSpace(s.Phys, s.Scenario.THPEnabled())
	if s.colored {
		as.EnableColoring()
	}
	return as
}

// churn performs mild allocate/free activity so that the buddy state is
// realistic rather than a single giant free block.
func churn(b *Buddy, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var held []struct {
		pfn   memaddr.PFN
		order int
	}
	// Allocate ~1% of memory in mixed-order blocks.
	budget := b.FreeFrames() / 100
	for budget > 0 {
		order := rng.Intn(4) // orders 0..3
		pfn, ok := b.AllocOrder(order)
		if !ok {
			break
		}
		held = append(held, struct {
			pfn   memaddr.PFN
			order int
		}{pfn, order})
		if uint64(1)<<order > budget {
			break
		}
		budget -= 1 << order
	}
	// Free a random 70% of it back.
	rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	for i, h := range held {
		if i%10 < 7 {
			b.Free(h.pfn, h.order)
		}
	}
}
