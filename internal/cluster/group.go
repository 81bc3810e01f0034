package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// payload is the typed union moved through the collective rendezvous. A
// concrete struct instead of `any` keeps the per-level hot path free of
// interface boxing: depositing a slice or an integer allocates nothing.
type payload struct {
	vec  []int64
	mat  [][]int64
	bm   []uint64
	num  int64
	num2 int64
}

// round is one generation of the blocking rendezvous. Rounds are
// double-buffered (see Group.rounds): while stragglers of round r are
// still assembling their results from its deposits, the fastest ranks
// may already be depositing into round r+1's buffer. The closer of
// round r resets the opposite buffer for round r+1 before releasing the
// gate, which is safe because every member has finished round r-1 (the
// buffer's previous user) by the time all of them have arrived at r.
type round struct {
	deposit []payload
	clocks  []float64
	arrived atomic.Int32 // deposits in; the rank completing the count closes the round
	merged  atomic.Int32 // sharded pre-assembly done (bitmap collectives only)
	leave   float64      // clock every participant leaves with; written by the closer
}

// Group is a communicator: an ordered subset of world ranks that perform
// collectives together. Groups are created before Run (or collectively
// inside it, provided every member creates the same groups in the same
// order). A rank's position within the group is its group rank.
//
// Collective results follow MPI receive-buffer discipline: the slices a
// member gets back are valid until that member's next collective on the
// same group, after which the group may recycle them.
//
// Concurrency model (the parallel collective engine). A blocking
// collective is a two-phase rendezvous:
//
//  1. Arrival gate: each member writes its deposit and entry clock into
//     its own slot of the current round and increments the round's
//     atomic arrival counter. The member whose increment completes the
//     count — the closer — computes only the cheap scalar metadata
//     (the modeled cost from deposit volumes, and the common leave
//     clock max(entry clocks) + cost), resets the opposite round
//     buffer for the next generation, and releases every peer with one
//     token on its personal wake channel. No lock is held across the
//     operation and no condvar broadcast funnels the wakeup through a
//     single mutex.
//  2. Parallel assembly: each member then assembles its own result
//     slice outside any lock — its row of the all-to-all, its view of
//     the allgather — from the round's deposits. The bitmap
//     collectives add a sharded pre-assembly between the phases: each
//     member ORs all deposits into its own cache-line-aligned word
//     shard of the shared accumulator, a second token gate publishes
//     the merged bitmap, and only then does anyone read it. Every
//     word of the accumulator is written by exactly one member, so the
//     O(p * words) OR fold that used to run single-threaded under the
//     group mutex now scales with host cores.
//
// Memory visibility is carried by the atomic arrival counters and the
// token channels: a member's deposit writes happen before its counter
// increment, the closer's metadata writes happen before the token
// sends, and each receive orders the subsequent reads. The simulated
// figures are bit-identical to the serialized engine's: pricing is a
// pure function of the deposits, the leave clock uses the same
// arithmetic, and the OR and fold orders are unchanged or commutative.
type Group struct {
	world   *World
	members []int       // world ids, in group-rank order
	index   map[int]int // world id -> group rank

	// Blocking rendezvous state. seq[i] counts member i's blocking
	// collectives on this group (touched only by that member's
	// goroutine); its parity selects the round buffer. wake[i] is member
	// i's personal token channel (buffered 1, never closed): the closer
	// of an arrival gate and the last merger of a shard gate each send
	// one token to every other member. A member consumes each token
	// before contributing to the next gate, so a send can never block.
	seq    []uint64
	rounds [2]round
	wake   []chan struct{}

	// scratch holds one reusable [][]int64 result row per member
	// (all-to-all receive rows, allgather and gather parts), recycled
	// every round. The outer slice is laid out at NewGroup; each inner
	// row is allocated and written only by its owning member, so
	// parallel assembly needs no coordination. counts is the closer's
	// volume-counting buffer; orWords the shared accumulator of the
	// bitmap collectives (sized by the closer, written shard-wise by
	// every member).
	scratch [][][]int64
	counts  []int64
	orWords []uint64

	// poisoned records a panic raised while completing a collective; it
	// is surfaced on every waiting participant so a failed operation
	// cannot deadlock the rest of the group. dead is its lock-free
	// entry-check mirror; poisonCh (closed once) wakes parked waiters.
	mu       sync.Mutex
	poisoned any
	dead     atomic.Bool
	poisonCh chan struct{}
}

// NewGroup creates a communicator over the given world ranks. The order
// of members defines group ranks.
func (w *World) NewGroup(members []int) *Group {
	if len(members) == 0 {
		panic("cluster: empty group")
	}
	n := len(members)
	g := &Group{
		world:    w,
		members:  append([]int(nil), members...),
		index:    make(map[int]int, n),
		seq:      make([]uint64, n),
		wake:     make([]chan struct{}, n),
		scratch:  make([][][]int64, n),
		poisonCh: make(chan struct{}),
	}
	for b := range g.rounds {
		g.rounds[b].deposit = make([]payload, n)
		g.rounds[b].clocks = make([]float64, n)
	}
	for i, m := range members {
		if m < 0 || m >= w.P {
			panic(fmt.Sprintf("cluster: member %d outside world of %d", m, w.P))
		}
		if _, dup := g.index[m]; dup {
			panic(fmt.Sprintf("cluster: duplicate member %d", m))
		}
		g.index[m] = i
		g.wake[i] = make(chan struct{}, 1)
	}
	return g
}

// RankIn returns the group rank of r, or -1 if r is not a member.
func (g *Group) RankIn(r *Rank) int {
	if i, ok := g.index[r.id]; ok {
		return i
	}
	return -1
}

// scratchRow returns member me's reusable result-assembly row, sized to
// the group. Only member me's goroutine may call it (owner-only
// discipline; the row is recycled at that member's next collective).
func (g *Group) scratchRow(me int) [][]int64 {
	if g.scratch[me] == nil {
		g.scratch[me] = make([][]int64, len(g.members))
	}
	return g.scratch[me]
}

// countBufs returns two reusable zeroed int64 buffers of group size.
// Only the closer of a round uses them, and the arrival gate
// serializes closers.
func (g *Group) countBufs() (a, b []int64) {
	n := len(g.members)
	if g.counts == nil {
		g.counts = make([]int64, 2*n)
	}
	for i := range g.counts {
		g.counts[i] = 0
	}
	return g.counts[:n], g.counts[n:]
}

// poisonLocked records the first failure, wakes every parked
// participant through poisonCh, and marks the group dead. Callers hold
// g.mu.
func (g *Group) poisonLocked(e any) {
	if g.poisoned != nil {
		return
	}
	g.poisoned = e
	g.dead.Store(true)
	close(g.poisonCh)
}

// poison is poisonLocked for callers not holding g.mu.
func (g *Group) poison(e any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.poisonLocked(e)
}

// poisonErr returns the recorded failure.
func (g *Group) poisonErr() any {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.poisoned
}

// checkPoisoned panics with the recorded failure if the group is dead;
// the fast path is one atomic load.
func (g *Group) checkPoisoned() {
	if g.dead.Load() {
		panic(g.poisonErr())
	}
}

// await parks member me until the current gate's token (or group
// poison) arrives.
func (g *Group) await(me int) {
	select {
	case <-g.wake[me]:
	case <-g.poisonCh:
		panic(g.poisonErr())
	}
}

// release sends one wake token to every member but me.
func (g *Group) release(me int) {
	for i := range g.wake {
		if i != me {
			g.wake[i] <- struct{}{}
		}
	}
}

// closeRound is the closer's half of the arrival gate: price the
// operation from the deposits, stamp the common leave clock, prepare the opposite buffer for the
// next generation, and release the gate. A panic while pricing
// (malformed input detected at completion time) poisons the group so
// the failure surfaces on every participant instead of deadlocking
// them.
func (g *Group) closeRound(rd *round, other *round, me int, price func(deposits []payload) float64) {
	defer func() {
		if e := recover(); e != nil {
			g.poison(e)
			panic(e)
		}
	}()
	cost := price(rd.deposit)
	// The operation starts when the last participant arrives.
	start := rd.clocks[0]
	for _, c := range rd.clocks[1:] {
		if c > start {
			start = c
		}
	}
	rd.leave = start + cost
	// Reset the opposite buffer for the next round. Safe: every member
	// has arrived here, so every member is done with the buffer's
	// previous generation; and nobody can enter the next round until
	// this gate releases. Clearing the deposits also drops the payload
	// references a round would otherwise retain.
	other.arrived.Store(0)
	other.merged.Store(0)
	clear(other.deposit)
	g.release(me)
}

// collective is the SPMD rendezvous shared by all collective operations.
// Each member deposits its contribution and passes three phase
// functions: price (run once, by the closer) maps the deposits to the
// operation's modeled cost; merge (optional; run by every member
// between two gates) contributes the member's shard of a shared
// pre-assembly; assemble (run by every member, in parallel, outside any
// lock) builds the member's own result from the deposits. Every member
// leaves with its result, its clock advanced to max(entry clocks) +
// cost, and the time spent (including waiting for stragglers) booked to
// tag.
func (g *Group) collective(r *Rank, dep payload, tag string,
	price func(deposits []payload) float64,
	merge func(me int, deposits []payload),
	assemble func(me int, deposits []payload) payload) payload {

	me := g.RankIn(r)
	if me < 0 {
		panic(fmt.Sprintf("cluster: rank %d not in group", r.id))
	}
	g.checkPoisoned()
	b := g.seq[me] & 1
	g.seq[me]++
	rd := &g.rounds[b]
	entry := r.clock
	rd.deposit[me] = dep
	rd.clocks[me] = entry
	n := len(g.members)
	if int(rd.arrived.Add(1)) == n {
		g.closeRound(rd, &g.rounds[1-b], me, price)
	} else {
		g.await(me)
	}
	if merge != nil {
		merge(me, rd.deposit)
		if int(rd.merged.Add(1)) == n {
			g.release(me)
		} else {
			g.await(me)
		}
	}
	out := assemble(me, rd.deposit)
	r.bookComm(tag, rd.leave-entry)
	r.clock = rd.leave
	return out
}

// alltoallvMaxVolumes accumulates per-member send/receive word counts
// from the deposited matrices into the (zeroed) count buffers and
// returns the busiest participant's volumes — the quantities the cost
// model prices.
func alltoallvMaxVolumes(deposits []payload, sendCounts, recvCounts []int64) (maxSend, maxRecv int64) {
	n := len(sendCounts)
	for src := 0; src < n; src++ {
		mat := deposits[src].mat
		for dst := 0; dst < n; dst++ {
			sendCounts[src] += int64(len(mat[dst]))
			recvCounts[dst] += int64(len(mat[dst]))
		}
	}
	for i := 0; i < n; i++ {
		if sendCounts[i] > maxSend {
			maxSend = sendCounts[i]
		}
		if recvCounts[i] > maxRecv {
			maxRecv = recvCounts[i]
		}
	}
	return maxSend, maxRecv
}

// validateBitsBlocks checks every member's deposited word range against
// the completing member's totalWords; panics (poisoning the calling
// collective) on a malformed deposit.
func validateBitsBlocks(deposits []payload, totalWords int64) {
	for i := range deposits {
		if deposits[i].num2 != totalWords {
			panic("cluster: AllgatherBitsBlocks totalWords mismatch across members")
		}
		o := deposits[i].num
		if o < 0 || o+int64(len(deposits[i].bm)) > totalWords {
			panic("cluster: AllgatherBitsBlocks deposit outside the bitmap")
		}
	}
}

// orMergeRange clears acc[lo:hi] and ORs into it the part of every
// member's deposited word range that intersects [lo, hi). The bitmap
// collective runs it once per member shard, in parallel. Deposits must
// already be validated.
func orMergeRange(deposits []payload, acc []uint64, lo, hi int64) {
	clear(acc[lo:hi])
	for i := range deposits {
		off := deposits[i].num
		bm := deposits[i].bm
		from, to := off, off+int64(len(bm))
		if from < lo {
			from = lo
		}
		if to > hi {
			to = hi
		}
		for k := from; k < to; k++ {
			acc[k] |= bm[k-off]
		}
	}
}

// bitsShard splits [0, totalWords) into one contiguous chunk per
// member, rounded to 8-word (64-byte cache line) boundaries so parallel
// shard merges never false-share.
func bitsShard(me, p int, totalWords int64) (lo, hi int64) {
	per := (totalWords + int64(p) - 1) / int64(p)
	per = (per + 7) &^ 7
	lo = int64(me) * per
	hi = lo + per
	if lo > totalWords {
		lo = totalWords
	}
	if hi > totalWords {
		hi = totalWords
	}
	return lo, hi
}

// Alltoallv performs an irregular personalized all-to-all: send[j] goes
// to group rank j; the returned slice holds, at position i, the data
// received from group rank i. Slices are passed by reference — receivers
// must not mutate them, and may read them only until their next
// collective on this group, mirroring MPI buffer discipline.
func (g *Group) Alltoallv(r *Rank, send [][]int64, tag string) [][]int64 {
	if len(send) != len(g.members) {
		panic("cluster: Alltoallv send buffer count != group size")
	}
	var sent int64
	for _, s := range send {
		sent += int64(len(s))
	}
	r.sentWords += sent
	out := g.collective(r, payload{mat: send}, tag,
		func(deposits []payload) float64 {
			// Per-node cost is dominated by the busiest participant; the
			// collective completes when the slowest node is done.
			sendCounts, recvCounts := g.countBufs()
			maxSend, maxRecv := alltoallvMaxVolumes(deposits, sendCounts, recvCounts)
			return g.world.Model.Alltoallv(len(g.members), maxSend, maxRecv)
		},
		nil,
		func(me int, deposits []payload) payload {
			// Each member assembles its own receive row in parallel.
			recv := g.scratchRow(me)
			for src := range deposits {
				recv[src] = deposits[src].mat[me]
			}
			return payload{mat: recv}
		}).mat
	for _, part := range out {
		r.recvWords += int64(len(part))
	}
	return out
}

// Allgatherv gathers every member's contribution at every member. The
// result holds, at position i, the data contributed by group rank i.
func (g *Group) Allgatherv(r *Rank, send []int64, tag string) [][]int64 {
	r.sentWords += int64(len(send))
	out := g.collective(r, payload{vec: send}, tag,
		func(deposits []payload) float64 {
			var total int64
			for i := range deposits {
				total += int64(len(deposits[i].vec))
			}
			return g.world.Model.Allgatherv(len(g.members), total)
		},
		nil,
		func(me int, deposits []payload) payload {
			parts := g.scratchRow(me)
			for i := range deposits {
				parts[i] = deposits[i].vec
			}
			return payload{mat: parts}
		}).mat
	for i, part := range out {
		if g.members[i] != r.id {
			r.recvWords += int64(len(part))
		}
	}
	return out
}

// AllgatherBitsBlocks is the dense-bitmap exchange of bottom-up BFS
// levels: member k deposits only the word sub-range [off,
// off+len(words)) of a bitmap of totalWords words — the words covering
// its owned bit range — and every member receives the assembled
// totalWords-word bitmap, the bitwise OR of all deposits. Because
// owned bit ranges rarely align to 64-bit word boundaries, adjacent
// members' padded ranges may overlap by one word; the OR merge makes
// that harmless as long as each member sets only its own bits.
// Deposits may be empty (a member whose range does not intersect the
// exchanged window). totalWords must agree across members.
//
// This is how MPI codes actually implement the dense frontier exchange
// (an allgatherv of owned chunks), and it is priced identically: one
// allgather over the group in which each member ends with the full
// bitmap. The grid subcommunicator exchanges of the 2D bottom-up phase
// run it twice per level — once along the row (assembling the row-block
// frontier from owned pieces) and once along the column (assembling the
// block-column slice from row-block intersections) — moving O(n/pr +
// n/pc) words per rank instead of the n/64-word world bitmap. The
// returned slice follows receive-buffer discipline: valid only until
// the member's next collective on this group, and must not be mutated.
//
// The OR fold itself runs as the rendezvous's sharded merge phase:
// each member ORs all deposits into its own cache-line-aligned word
// shard of the shared accumulator, so the O(p * totalWords) fold
// parallelizes across the member goroutines instead of running
// single-threaded on the last arriver.
func (g *Group) AllgatherBitsBlocks(r *Rank, words []uint64, off, totalWords int64, tag string) []uint64 {
	// Malformed deposits are detected at completion time, where the
	// resulting panic poisons the group and surfaces on every
	// participant instead of stranding them.
	r.sentWords += int64(len(words))
	out := g.collective(r, payload{bm: words, num: off, num2: totalWords}, tag,
		func(deposits []payload) float64 {
			validateBitsBlocks(deposits, totalWords)
			if int64(cap(g.orWords)) < totalWords {
				g.orWords = make([]uint64, totalWords)
			}
			return g.world.Model.Allgatherv(len(g.members), totalWords)
		},
		func(me int, deposits []payload) {
			lo, hi := bitsShard(me, len(g.members), totalWords)
			orMergeRange(deposits, g.orWords[:totalWords], lo, hi)
		},
		func(int, []payload) payload {
			return payload{bm: g.orWords[:totalWords]}
		}).bm
	if recv := totalWords - int64(len(words)); recv > 0 {
		r.recvWords += recv
	}
	return out
}

// AllreduceSum returns the sum of every member's value.
func (g *Group) AllreduceSum(r *Rank, v int64, tag string) int64 {
	return g.collective(r, payload{num: v}, tag,
		func([]payload) float64 { return g.world.Model.Allreduce(len(g.members), 1) },
		nil,
		func(_ int, deposits []payload) payload {
			var sum int64
			for i := range deposits {
				sum += deposits[i].num
			}
			return payload{num: sum}
		}).num
}

// AllreduceSum2 returns the sums of every member's two values in one
// two-word allreduce: one latency term, where two AllreduceSum calls
// would pay two.
func (g *Group) AllreduceSum2(r *Rank, a, b int64, tag string) (int64, int64) {
	out := g.collective(r, payload{num: a, num2: b}, tag,
		func([]payload) float64 { return g.world.Model.Allreduce(len(g.members), 2) },
		nil,
		func(_ int, deposits []payload) payload {
			var sum payload
			for i := range deposits {
				sum.num += deposits[i].num
				sum.num2 += deposits[i].num2
			}
			return sum
		})
	return out.num, out.num2
}

// AllreduceOr returns the bitwise OR of every member's 64-bit mask: the
// batched BFS's per-level reduction of "searches that discovered
// something this level" (one bit per search in the batch). Priced like
// the other single-word allreduces.
func (g *Group) AllreduceOr(r *Rank, v uint64, tag string) uint64 {
	return uint64(g.collective(r, payload{num: int64(v)}, tag,
		func([]payload) float64 { return g.world.Model.Allreduce(len(g.members), 1) },
		nil,
		func(_ int, deposits []payload) payload {
			var or int64
			for i := range deposits {
				or |= deposits[i].num
			}
			return payload{num: or}
		}).num)
}

// Bcast distributes root's data (by group rank) to all members.
func (g *Group) Bcast(r *Rank, root int, data []int64, tag string) []int64 {
	if g.RankIn(r) == root {
		r.sentWords += int64(len(data)) * int64(len(g.members)-1)
	}
	out := g.collective(r, payload{vec: data}, tag,
		func(deposits []payload) float64 {
			return g.world.Model.Bcast(len(g.members), int64(len(deposits[root].vec)))
		},
		nil,
		func(_ int, deposits []payload) payload {
			return payload{vec: deposits[root].vec}
		}).vec
	if g.RankIn(r) != root {
		r.recvWords += int64(len(out))
	}
	return out
}

// Gatherv collects every member's contribution at root (by group rank);
// non-root members receive nil. The result at root holds contributions
// indexed by group rank.
func (g *Group) Gatherv(r *Rank, root int, send []int64, tag string) [][]int64 {
	r.sentWords += int64(len(send))
	parts := g.collective(r, payload{vec: send}, tag,
		func(deposits []payload) float64 {
			var total int64
			for i := range deposits {
				total += int64(len(deposits[i].vec))
			}
			return g.world.Model.Gatherv(len(g.members), total)
		},
		nil,
		func(me int, deposits []payload) payload {
			if me != root {
				return payload{}
			}
			parts := g.scratchRow(me)
			for i := range deposits {
				parts[i] = deposits[i].vec
			}
			return payload{mat: parts}
		}).mat
	if parts == nil {
		return nil
	}
	for i, part := range parts {
		if g.members[i] != r.id {
			r.recvWords += int64(len(part))
		}
	}
	return parts
}

// SendRecvAll performs a pairwise exchange between r and the member whose
// group rank is peerOf(r's group rank): both must name each other. It is
// built on the group rendezvous, so every group member must participate
// in the same round (possibly exchanging with itself), which matches how
// the 2D algorithm's TransposeVector uses it (a full permutation
// exchange).
func (g *Group) SendRecvAll(r *Rank, peerOf func(groupRank int) int, send []int64, tag string) []int64 {
	me := g.RankIn(r)
	peer := peerOf(me)
	if peer < 0 || peer >= len(g.members) {
		panic("cluster: SendRecvAll peer out of range")
	}
	if peer != me {
		r.sentWords += int64(len(send))
	}
	out := g.collective(r, payload{vec: send}, tag,
		func(deposits []payload) float64 {
			var maxWords int64
			for i := range deposits {
				p := peerOf(i)
				if peerOf(p) != i {
					panic("cluster: SendRecvAll permutation is not an involution")
				}
				if w := int64(len(deposits[p].vec)); w > maxWords && p != i {
					maxWords = w
				}
			}
			return g.world.Model.PointToPoint(maxWords)
		},
		nil,
		func(me int, deposits []payload) payload {
			return payload{vec: deposits[peerOf(me)].vec}
		}).vec
	if peer != me {
		r.recvWords += int64(len(out))
	}
	return out
}
