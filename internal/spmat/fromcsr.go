package spmat

import "repro/internal/graph"

// TransposedBlocks returns the transposed adjacency of csr cut into a
// grid of row-split DCSC blocks, the layout of the 2D algorithm: block
// [i][j] spans rows [rowBounds[i], rowBounds[i+1]) and columns
// [colBounds[j], colBounds[j+1]), holds entry (v, u), rebased to the
// block, for every stored edge u → v, and is split into t row strips
// exactly as NewRowSplit splits it. The bounds must start at 0 and end
// at csr.NumVerts, and no block may pass MaxBlockDim rows or columns
// (bfs2d.Part2D.Validate checks both for its grids).
//
// Column u of the transpose is CSR row u, so the strips fill column by
// column in ascending u: JC comes out sorted, and IR is sorted within
// each column because CSR rows are. Each column block takes two linear
// passes over its CSR rows, one to size every strip and one to fill it.
// The CSR must be sorted and duplicate-free, as graph.BuildCSR with
// dedup makes it; self-loops it holds are stored like any other edge.
func TransposedBlocks(csr *graph.CSR, rowBounds, colBounds []int64, t int) [][]*RowSplit {
	pr, pc := len(rowBounds)-1, len(colBounds)-1
	// bounds lists the first row of every strip of every row block in
	// ascending order, closed by the last block's end, so a column's
	// sorted rows visit the strips in order.
	offsets := make([][]int64, pr)
	var bounds []int64
	for i := range offsets {
		offsets[i] = stripOffsets(rowBounds[i+1]-rowBounds[i], t)
		for _, off := range offsets[i][:len(offsets[i])-1] {
			bounds = append(bounds, rowBounds[i]+off)
		}
	}
	bounds = append(bounds, rowBounds[pr])

	blocks := make([][]*RowSplit, pr)
	for i := range blocks {
		blocks[i] = make([]*RowSplit, pc)
	}
	strips := make([]*DCSC, len(bounds)-1)
	nnz := make([]int64, len(strips))
	nzc := make([]int64, len(strips))
	for j := 0; j < pc; j++ {
		colLo, colHi := colBounds[j], colBounds[j+1]
		clear(nnz)
		clear(nzc)
		for u := colLo; u < colHi; u++ {
			s, last := 0, -1
			for _, id := range csr.Neighbors(u) {
				v := int64(id)
				for v >= bounds[s+1] {
					s++
				}
				nnz[s]++
				if s != last {
					nzc[s]++
					last = s
				}
			}
		}
		for s := range strips {
			strips[s] = &DCSC{
				Rows: bounds[s+1] - bounds[s], Cols: colHi - colLo,
				JC: make([]int64, 0, nzc[s]),
				CP: make([]int64, 0, nzc[s]+1),
				IR: make([]uint32, 0, nnz[s]),
			}
		}
		for u := colLo; u < colHi; u++ {
			s, last := 0, -1
			for _, id := range csr.Neighbors(u) {
				v := int64(id)
				for v >= bounds[s+1] {
					s++
				}
				d := strips[s]
				if s != last {
					d.JC = append(d.JC, u-colLo)
					d.CP = append(d.CP, int64(len(d.IR)))
					last = s
				}
				d.IR = append(d.IR, uint32(v-bounds[s]))
			}
		}
		s := 0
		for i := range blocks {
			n := len(offsets[i]) - 1
			for _, d := range strips[s : s+n] {
				d.CP = append(d.CP, int64(len(d.IR)))
			}
			blocks[i][j] = &RowSplit{
				Rows: rowBounds[i+1] - rowBounds[i], Cols: colHi - colLo,
				Strips: append([]*DCSC(nil), strips[s:s+n]...), Offsets: offsets[i],
			}
			s += n
		}
	}
	return blocks
}

// PullBlocks returns the row-major pull views of the grid TransposedBlocks
// cuts, sliced out of in, the graph's in-adjacency CSR (row v lists the
// sources u of the edges u → v, sorted), with no entry copied. Row v of
// block [i][j] is the run of in's row v whose ids fall in
// [colBounds[j], colBounds[j+1]): rows are sorted, so the run is
// contiguous and its ids ascend, and the scan order, hence every first
// parent and scanned count, is the one a row-major copy of the block
// gives. The runs of row block i start at boundaries 0..pc of each row:
// boundary 0 is XAdj[v] and boundary pc is XAdj[v+1], so the row block
// allocates only the pc−1 inner boundary arrays, and view [i][j] reads
// boundaries j and j+1 as its Beg and End. Each view carries its
// live-row mask, built here once, and is split into the t row strips
// TransposedBlocks uses, which read the mask at their first row. Ids
// stay global.
func PullBlocks(in *graph.CSR, rowBounds, colBounds []int64, t int) [][]*PullSplit {
	pr, pc := len(rowBounds)-1, len(colBounds)-1
	views := make([][]*PullSplit, pr)
	for i := range views {
		lo, hi := rowBounds[i], rowBounds[i+1]
		cut := make([][]int64, pc+1)
		cut[0], cut[pc] = in.XAdj[lo:hi], in.XAdj[lo+1:hi+1]
		for j := 1; j < pc; j++ {
			cut[j] = make([]int64, hi-lo)
		}
		for v := lo; v < hi; v++ {
			k, end := in.XAdj[v], in.XAdj[v+1]
			for j := 1; j < pc; j++ {
				for k < end && int64(in.Adj[k]) < colBounds[j] {
					k++
				}
				cut[j][v-lo] = k
			}
		}
		offsets := stripOffsets(hi-lo, t)
		views[i] = make([]*PullSplit, pc)
		for j := range views[i] {
			m := &PullCSR{Rows: hi - lo, Cols: colBounds[j+1] - colBounds[j], Beg: cut[j], End: cut[j+1], Adj: in.Adj,
				Live: LiveRows(cut[j], cut[j+1])}
			ps := &PullSplit{Offsets: offsets, Strips: make([]*PullCSR, len(offsets)-1)}
			for s := range ps.Strips {
				ps.Strips[s] = m.SubRows(offsets[s], offsets[s+1])
			}
			views[i][j] = ps
		}
	}
	return views
}
