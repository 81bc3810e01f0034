package spvec

// MaskVec is the sparse vector type of the batched (multi-source) BFS:
// each entry is a vertex index carrying a 64-bit search mask — bit k set
// means the entry concerns search k of the batch — plus the discovering
// parent as payload. One MaskVec entry does the work of up to 64 Vec
// entries, which is exactly the amortization the bit-parallel kernels
// trade on.
//
// Entries are not required to be sorted or unique: the first-wins
// semantics of BFS discovery (a bit, once claimed, is masked out of every
// later entry for the same index) make an unsorted merge correct, unlike
// Vec's (select,max) fold which needs sorted inputs.
type MaskVec struct {
	Ind  []int64  // vertex indices (local or global, per caller's convention)
	Mask []uint64 // per-entry search mask; kept entries are never zero
	Par  []int64  // discovering parent (global id), one per entry
}

// Reset empties the vector, keeping capacity.
func (v *MaskVec) Reset() {
	v.Ind = v.Ind[:0]
	v.Mask = v.Mask[:0]
	v.Par = v.Par[:0]
}

// NNZ returns the number of entries.
func (v *MaskVec) NNZ() int64 { return int64(len(v.Ind)) }

// Append adds an entry. Zero masks are the caller's responsibility to
// filter (kernels never emit them).
func (v *MaskVec) Append(ind int64, mask uint64, par int64) {
	v.Ind = append(v.Ind, ind)
	v.Mask = append(v.Mask, mask)
	v.Par = append(v.Par, par)
}
