package core

import (
	"testing"

	"ipregel/internal/gen"
)

// TestSpanRule pins the engine's one cut decision (spanParts/cutSpans)
// for item counts from 0 to 10⁶ at 1, 2, 4 and 8 workers: the spans tile
// [0, n) exactly once, in order and with none empty, and their sizes
// differ by at most one item. One worker gets one span; below t·minSpan
// items t workers get t spans (one per item when there are fewer); above
// it no worker gets more than spansPerThread. The full scan's spans keep
// that part count in whole 64-slot words (checkScanSpans).
func TestSpanRule(t *testing.T) {
	var ns []int
	for n := 0; n <= 1_000_000; n += 1 + n/64 {
		ns = append(ns, n)
	}
	ns = append(ns, 1_000_000)
	for _, th := range []int{1, 2, 4, 8} {
		for _, k := range []int{64 * th, th * minSpan, th * spansPerThread * minSpan} {
			ns = append(ns, k-1, k, k+1)
		}
	}
	for _, th := range []int{1, 2, 4, 8} {
		for _, n := range ns {
			spans := cutSpans(nil, n, th)
			want := spanParts(n, th)
			switch {
			case th == 1 && want != 1:
				t.Fatalf("t=1 n=%d: %d parts, want one", n, want)
			case th > 1 && n < th*minSpan && want != th:
				t.Fatalf("t=%d n=%d: %d parts, want t below t·minSpan", th, n, want)
			case want < 1 || want > th*spansPerThread:
				t.Fatalf("t=%d n=%d: %d parts, outside [1, t·%d]", th, n, want, spansPerThread)
			case th > 1 && n >= th*spansPerThread*minSpan && want != th*spansPerThread:
				t.Fatalf("t=%d n=%d: %d parts, want t·%d", th, n, want, spansPerThread)
			case len(spans) != min(want, n):
				t.Fatalf("t=%d n=%d: %d spans for %d parts", th, n, len(spans), want)
			}
			next := 0
			for _, sp := range spans {
				size := int(sp.hi - sp.lo)
				if int(sp.lo) != next || size <= 0 || size < n/len(spans) || size > n/len(spans)+1 {
					t.Fatalf("t=%d n=%d: span %v after %d is not the next equal share of %d spans", th, n, sp, next, len(spans))
				}
				next = int(sp.hi)
			}
			if next != n {
				t.Fatalf("t=%d n=%d: spans end at %d, want %d", th, n, next, n)
			}
			checkScanSpans(t, n, th)
		}
	}
}

// checkScanSpans pins the full scan's cut (cutScanSpans) of n slots for
// th workers: the span rule's part count, or one span per 64-slot word
// when there are fewer words, so the count is the rule's whenever there
// are at least 64 slots per part; the spans tile [0, n) in order, none
// empty, every cut but the last (n) on a multiple of 64, and their word
// counts differ by at most one.
func checkScanSpans(t *testing.T, n, th int) {
	t.Helper()
	spans, parts, words := cutScanSpans(n, th), spanParts(n, th), occupancyWords(n)
	switch {
	case len(spans) != min(parts, words):
		t.Fatalf("t=%d n=%d: %d scan spans, want min(%d parts, %d words)", th, n, len(spans), parts, words)
	case n >= 64*parts && len(spans) != parts:
		t.Fatalf("t=%d n=%d: %d scan spans, want the span rule's %d", th, n, len(spans), parts)
	}
	next := 0
	for _, sp := range spans {
		lo, hi := int(sp.lo), int(sp.hi)
		size := occupancyWords(hi - lo)
		if lo != next || hi <= lo || lo%64 != 0 || hi%64 != 0 && hi != n || size < words/len(spans) || size > words/len(spans)+1 {
			t.Fatalf("t=%d n=%d: scan span %v after %d is not the next whole-word share of %d spans", th, n, sp, next, len(spans))
		}
		next = hi
	}
	if next != n {
		t.Fatalf("t=%d n=%d: scan spans end at %d, want %d", th, n, next, n)
	}
}

// TestThreadsParityManySpans runs the span rule where it over-decomposes:
// a power-law graph of 16·4·minSpan vertices (identifiers from 1) gives
// the full scan t·spansPerThread spans at two and at four workers, and
// its bypass frontiers grow past (t+1)·minSpan, so a collect cuts more
// spans than there are workers.
// Every direction and selection mode must compute what one thread does,
// with the barrier audits on.
func TestThreadsParityManySpans(t *testing.T) {
	const n = 4 * spansPerThread * minSpan
	g := gen.RMATN(n, 8*n, 5, 1, true)
	sameInt := func(a, b uint32) bool { return a == b }
	for _, dir := range []Direction{DirectionPush, DirectionPull} {
		for _, bypass := range []bool{false, true} {
			cfg := Config{Combiner: CombinerSpin, Direction: dir, SelectionBypass: bypass}
			t.Run(cellName(cfg), func(t *testing.T) {
				for _, threads := range []int{2, 4} {
					cfg.Threads = threads
					e, err := New(g, cfg, ssspProg(1))
					if err != nil {
						t.Fatal(err)
					}
					if got := len(e.scanSpans); got != threads*spansPerThread {
						t.Fatalf("threads=%d: %d scan spans, want %d", threads, got, threads*spansPerThread)
					}
					rep := oneVsThreads(t, g, cfg, ssspProg(1), sameInt, threads)
					if bypass {
						widest := 0
						for _, s := range rep.Steps {
							widest = max(widest, int(s.NextFrontier))
						}
						if widest <= (threads+1)*minSpan {
							t.Fatalf("widest frontier %d never needs more than %d spans", widest, threads)
						}
					}
				}
			})
		}
	}
}
