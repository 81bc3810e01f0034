package spvec

// Stream is one sorted run of (index, value) pairs participating in a
// multiway merge: typically a matrix column selected by a frontier
// nonzero, with every row in the column carrying the same value (the
// frontier vertex that selects the column). Indices are uint32 because
// DCSC row ids, the only runs merged, are block-local.
type Stream struct {
	Ind []uint32 // sorted, unique indices
	Val int64    // value attached to every index in the run
}

// heapEntry is a cursor into one stream.
type heapEntry struct {
	head   int64 // current index (cached for comparisons)
	stream int32 // which stream
	pos    int32 // position within the stream
}

// MultiwayMergeWith merges k sorted streams into dst, collapsing
// duplicate indices with the (select,max) rule. This is the paper's
// "priority queue" SpMSV kernel: memory use is O(k + output), independent
// of the index range, which makes it the preferred kernel at high process
// counts where per-process SPA ranges become huge relative to frontier
// sizes (Figure 3's crossover near 10k cores). A non-nil sc supplies a
// reusable cursor heap, so callers that merge once per BFS level keep the
// steady state allocation-free.
func MultiwayMergeWith(dst *Vec, streams []Stream, sc *MergeScratch) *Vec {
	dst.Reset()
	var h []heapEntry
	if sc != nil {
		h = sc.h[:0]
	} else {
		h = make([]heapEntry, 0, len(streams))
	}
	for si, s := range streams {
		if len(s.Ind) > 0 {
			h = append(h, heapEntry{head: int64(s.Ind[0]), stream: int32(si), pos: 0})
		}
	}
	buildHeap(h)
	for len(h) > 0 {
		top := h[0]
		idx := top.head
		val := streams[top.stream].Val
		// Pop every entry with the same index, keeping the max value.
		for {
			s := &streams[h[0].stream]
			if v := s.Val; v > val {
				val = v
			}
			// Advance the popped cursor; reinsert or remove.
			pos := h[0].pos + 1
			if int(pos) < len(s.Ind) {
				h[0].pos = pos
				h[0].head = int64(s.Ind[pos])
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			if len(h) > 0 {
				siftDown(h, 0)
			}
			if len(h) == 0 || h[0].head != idx {
				break
			}
		}
		dst.Ind = append(dst.Ind, idx)
		dst.Val = append(dst.Val, val)
	}
	if sc != nil {
		sc.h = h[:0]
	}
	return dst
}

func buildHeap(h []heapEntry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func siftDown(h []heapEntry, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].head < h[smallest].head {
			smallest = l
		}
		if r < n && h[r].head < h[smallest].head {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
