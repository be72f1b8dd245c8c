package main

import "sort"

// interval is a span's [start, end) in Unix nanoseconds.
type interval struct{ start, end int64 }

// unionLength is the total time covered by at least one interval. Chunk
// spans of one search run concurrently on several workers and overlap, so
// the time a search spent sweeping is their union, not their sum; the rest
// of the run span is the search's own time outside the sweep.
func unionLength(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, x := range s[1:] {
		if x.start > cur.end {
			total += cur.end - cur.start
			cur = x
			continue
		}
		if x.end > cur.end {
			cur.end = x.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is a parent span's duration minus the part of it its children
// cover.
func selfTime(parentNS int64, children []interval) int64 {
	return parentNS - unionLength(children)
}
