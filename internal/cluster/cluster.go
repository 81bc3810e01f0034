// Package cluster is the distributed-memory substrate standing in for
// MPI. Ranks are goroutines; collectives move real data through a shared
// staging area with MPI rendezvous semantics (every participant blocks
// until the operation completes), so the BFS implementations execute
// their true distributed dataflow and can be validated end to end.
//
// Time is simulated: each rank carries a clock in "machine seconds".
// Local computation advances a rank's clock through explicit charges
// priced by the paper's Section 5 memory model; a collective advances
// every participant to max(entry clocks) + modeled cost. Waiting for
// stragglers is therefore accounted as communication time, exactly like
// MPI wait time in the paper's measurements (Figure 4 normalizes it that
// way). The result is a deterministic, machine-independent reproduction
// of the paper's timing methodology whose *host* execution scales with
// the machine's cores: rank goroutines rendezvous through lock-free
// arrival gates and assemble their collective results in parallel (see
// Group), while the simulated figures stay bit-identical on any host.
package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// CostModel prices communication operations. Volumes are in 64-bit words.
// netmodel.Machine is the canonical implementation.
type CostModel interface {
	Alltoallv(p int, sendWords, recvWords int64) float64
	Allgatherv(p int, recvWords int64) float64
	Allreduce(p int, words int64) float64
	Bcast(p int, words int64) float64
	Gatherv(p int, recvWords int64) float64
	PointToPoint(words int64) float64
}

// ZeroCost is a CostModel that charges nothing; useful for pure
// correctness tests.
type ZeroCost struct{}

func (ZeroCost) Alltoallv(int, int64, int64) float64 { return 0 }
func (ZeroCost) Allgatherv(int, int64) float64       { return 0 }
func (ZeroCost) Allreduce(int, int64) float64        { return 0 }
func (ZeroCost) Bcast(int, int64) float64            { return 0 }
func (ZeroCost) Gatherv(int, int64) float64          { return 0 }
func (ZeroCost) PointToPoint(int64) float64          { return 0 }

// World is a set of P ranks sharing a cost model.
type World struct {
	P     int
	Model CostModel
	ranks []*Rank
	world *Group
}

// NewWorld creates a world of p ranks.
func NewWorld(p int, model CostModel) *World {
	if p < 1 {
		panic("cluster: world size must be >= 1")
	}
	w := &World{P: p, Model: model}
	w.ranks = make([]*Rank, p)
	for i := 0; i < p; i++ {
		w.ranks[i] = &Rank{id: i, world: w, commTime: map[string]float64{}}
	}
	members := make([]int, p)
	for i := range members {
		members[i] = i
	}
	w.world = w.NewGroup(members)
	return w
}

// WorldGroup returns the group containing all ranks.
func (w *World) WorldGroup() *Group { return w.world }

// Reset zeroes every rank's clock and communication ledgers so the same
// world (and the groups built over it) can time another run. Sessions
// reuse one world across a whole Graph 500 search batch, resetting
// between searches; rebuilding the world and its grid groups per search
// would discard the groups' collective scratch as well. Must not be
// called while Run is executing.
func (w *World) Reset() {
	for _, r := range w.ranks {
		r.clock = 0
		r.compTime = 0
		r.sentWords = 0
		r.recvWords = 0
		for tag := range r.commTime {
			delete(r.commTime, tag)
		}
		r.tagOrder = r.tagOrder[:0]
	}
}

// Run executes body once per rank, each in its own goroutine, and blocks
// until all complete. It panics with the first rank error if any body
// panics (collectives would otherwise deadlock on a lost participant).
func (w *World) Run(body func(r *Rank)) {
	var wg sync.WaitGroup
	errs := make(chan error, w.P)
	for _, r := range w.ranks {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					errs <- fmt.Errorf("rank %d: %v", r.id, e)
				}
			}()
			body(r)
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		panic(err)
	default:
	}
}

// Rank is one simulated process. All methods must be called only from the
// rank's own goroutine.
type Rank struct {
	id    int
	world *World

	clock     float64
	compTime  float64
	commTime  map[string]float64
	tagOrder  []string // commTime keys, maintained sorted at insert
	sentWords int64
	recvWords int64
}

// bookComm charges dt seconds of communication to tag, keeping the tag
// list sorted as tags first appear so total queries fold in a
// deterministic order without re-sorting per call.
func (r *Rank) bookComm(tag string, dt float64) {
	if _, ok := r.commTime[tag]; !ok {
		i := sort.SearchStrings(r.tagOrder, tag)
		r.tagOrder = append(r.tagOrder, "")
		copy(r.tagOrder[i+1:], r.tagOrder[i:])
		r.tagOrder[i] = tag
	}
	r.commTime[tag] += dt
}

// ID returns the world rank id.
func (r *Rank) ID() int { return r.id }

// Charge advances the clock by dt seconds of local computation.
func (r *Rank) Charge(dt float64) {
	if dt < 0 {
		panic("cluster: negative compute charge")
	}
	r.clock += dt
	r.compTime += dt
}

// CommTime returns accumulated communication seconds for the tag, or the
// total over all tags when tag is empty. The total is summed in sorted
// tag order: map iteration order would wobble the last ulp between runs,
// and the simulated profile is supposed to be bit-deterministic. The
// sorted order is maintained as tags are first booked (see bookComm), so
// the query itself is a straight fold with no per-call sort.
func (r *Rank) CommTime(tag string) float64 {
	if tag != "" {
		return r.commTime[tag]
	}
	var t float64
	for _, tag := range r.tagOrder {
		t += r.commTime[tag]
	}
	return t
}

// Volumes returns cumulative sent and received word counts.
func (r *Rank) Volumes() (sent, recv int64) { return r.sentWords, r.recvWords }

// Stats summarizes a finished run.
type Stats struct {
	MaxClock   float64            // simulated completion time (slowest rank)
	CompTime   []float64          // per-rank computation seconds
	CommTime   []float64          // per-rank communication seconds (all tags)
	CommByTag  map[string]float64 // max-over-ranks per tag
	TotalSent  int64
	TotalRecvd int64
}

// Stats collects per-rank ledgers after Run has returned.
func (w *World) Stats() Stats {
	st := Stats{CommByTag: map[string]float64{}}
	st.CompTime = make([]float64, w.P)
	st.CommTime = make([]float64, w.P)
	tags := map[string]bool{}
	for i, r := range w.ranks {
		if r.clock > st.MaxClock {
			st.MaxClock = r.clock
		}
		st.CompTime[i] = r.compTime
		st.CommTime[i] = r.CommTime("")
		st.TotalSent += r.sentWords
		st.TotalRecvd += r.recvWords
		for tag := range r.commTime {
			tags[tag] = true
		}
	}
	tagList := make([]string, 0, len(tags))
	for tag := range tags {
		tagList = append(tagList, tag)
	}
	sort.Strings(tagList)
	for _, tag := range tagList {
		var mx float64
		for _, r := range w.ranks {
			if v := r.commTime[tag]; v > mx {
				mx = v
			}
		}
		st.CommByTag[tag] = mx
	}
	return st
}
