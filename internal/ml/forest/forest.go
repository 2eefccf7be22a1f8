// Package forest implements a random forest classifier (bagged CART trees
// with per-split random feature subsets and Gini impurity), the default
// probabilistic classification algorithm of CABD [25]. Class probabilities
// are averaged leaf distributions across trees; CABD uses them directly as
// the confidence weights of Section IV and their complement as the
// uncertainty driving active learning (Equation 13).
//
// Trees are stored as flat preorder node arrays — the same layout the
// Snapshot wire form uses — so inference walks contiguous memory instead
// of chasing heap pointers, and PredictProbaBatch streams each tree
// through all rows of a column-major Matrix (tree-major order: the hot
// node array stays cached while rows advance). Split search is
// presorted: each column is argsorted once per forest, every tree
// expands its bootstrap sample along those orders, and a node sweeps
// its rows of each candidate feature already in value order — O(d·k)
// per node, no per-node sort. Training fans the trees out over per-tree
// goroutines; every tree draws from its own rand.Rand seeded from the
// caller's stream before the fan-out, so the ensemble is bit-identical
// at any worker count (Workers: 1 is the sequential differential
// oracle).
package forest

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
)

// Config controls forest training.
type Config struct {
	Trees      int // number of trees (default 100)
	MaxDepth   int // depth cap per tree (default 12)
	MinLeaf    int // minimum samples per leaf (default 1)
	MTry       int // features considered per split (default ceil(sqrt(d)))
	NumClasses int // required: size of the label space

	// Workers bounds the tree-building goroutines: 0 uses GOMAXPROCS,
	// 1 is the sequential oracle. The trained ensemble is bit-identical
	// at every setting — each tree owns a rand.Rand split off the
	// caller's stream before any tree building starts.
	Workers int
}

func (c *Config) defaults(d int) {
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.MTry <= 0 {
		c.MTry = int(math.Ceil(math.Sqrt(float64(d))))
	}
	if c.MTry > d {
		c.MTry = d
	}
}

// Forest is a trained ensemble.
type Forest struct {
	trees      []tree
	inBag      [][]bool // per tree: was training row i in the bootstrap sample
	numClasses int
}

// tree is one CART tree as a flat preorder node array: nodes[0] is the
// root, children sit strictly after their parent.
type tree struct {
	nodes []FlatNode
}

// leafFor walks x down to its leaf distribution.
func (t tree) leafFor(x []float64) []float64 {
	at := 0
	for t.nodes[at].Probs == nil {
		n := &t.nodes[at]
		if x[n.Feature] <= n.Threshold {
			at = n.Left
		} else {
			at = n.Right
		}
	}
	return t.nodes[at].Probs
}

// Train fits a forest on X (rows are feature vectors) and y (class ids in
// [0, cfg.NumClasses)). rng drives bootstrap and feature sampling; pass a
// seeded source for reproducibility. Returns nil when the input is empty.
func Train(X [][]float64, y []int, cfg Config, rng *rand.Rand) *Forest {
	return TrainWeighted(X, y, nil, cfg, rng)
}

// TrainWeighted is Train with per-row sampling weights: each bootstrap
// draw picks row i with probability weights[i]/sum(weights). nil weights
// are uniform. Rows with higher weight steer the ensemble the way
// replicating them would, while keeping one row per example so out-of-bag
// estimates stay meaningful.
func TrainWeighted(X [][]float64, y []int, weights []float64, cfg Config, rng *rand.Rand) *Forest {
	if len(X) == 0 {
		return nil
	}
	return TrainMatrixWeighted(RowMajor(X), y, weights, cfg, rng)
}

// TrainMatrixWeighted is TrainWeighted over a column-major feature
// matrix — the native form of the scoring hot path, which fills one
// index-aligned column per feature. Each column is argsorted once, and
// every node's split search sweeps its rows in that order. Returns nil
// on empty or inconsistent input.
//
// Every column must be free of NaN: the split search orders rows by
// value, and NaN has no place in that order, so the trained splits
// would be undefined. The detector's scoring pass guarantees this for
// sanitized series.
func TrainMatrixWeighted(m Matrix, y []int, weights []float64, cfg Config, rng *rand.Rand) *Forest {
	n := m.N
	if n == 0 || len(y) != n || cfg.NumClasses <= 0 || !m.valid() {
		return nil
	}
	if weights != nil && len(weights) != n {
		return nil
	}
	d := len(m.Cols)
	cfg.defaults(d)
	// Cumulative weights for sampling (shared, read-only across trees).
	var cum []float64
	if weights != nil {
		cum = make([]float64, n)
		var total float64
		for i, w := range weights {
			if w < 0 {
				w = 0
			}
			total += w
			cum[i] = total
		}
		if total <= 0 {
			cum = nil
		}
	}
	// Split one deterministic rand stream per tree off the caller's rng
	// BEFORE any tree building: tree t's draws depend only on seeds[t],
	// never on scheduling, so parallel training is bit-identical to the
	// sequential oracle at any GOMAXPROCS.
	seeds := make([]int64, cfg.Trees)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	order := argsortColumns(m)
	f := &Forest{
		numClasses: cfg.NumClasses,
		trees:      make([]tree, cfg.Trees),
		inBag:      make([][]bool, cfg.Trees),
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trees {
		workers = cfg.Trees
	}
	if workers <= 1 {
		b := newBuilder(m, y, order, cfg)
		for t := 0; t < cfg.Trees; t++ {
			f.trees[t], f.inBag[t] = b.train(cum, rand.New(rand.NewSource(seeds[t])))
		}
		return f
	}
	ch := make(chan int, cfg.Trees)
	for t := 0; t < cfg.Trees; t++ {
		ch <- t
	}
	close(ch)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newBuilder(m, y, order, cfg)
			for t := range ch {
				// Each slot is written by exactly one goroutine; the
				// deterministic merge is the tree index itself.
				f.trees[t], f.inBag[t] = b.train(cum, rand.New(rand.NewSource(seeds[t])))
			}
		}()
	}
	wg.Wait()
	return f
}

// searchCum returns the first index whose cumulative weight exceeds v.
func searchCum(cum []float64, v float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// argsortColumns returns, per feature, the row indices of m in ascending
// order of that feature's value. It runs once per forest and is shared
// read-only by every tree builder. A featureless matrix still gets one
// (identity) order, since each node's rows live in the sorted lists.
func argsortColumns(m Matrix) [][]int32 {
	d := max(len(m.Cols), 1)
	flat := make([]int32, d*m.N)
	order := make([][]int32, d)
	for f := range order {
		o := flat[f*m.N : (f+1)*m.N]
		for i := range o {
			o[i] = int32(i)
		}
		if f < len(m.Cols) {
			col := m.Cols[f]
			slices.SortFunc(o, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		}
		order[f] = o
	}
	return order
}

// builder holds the per-goroutine scratch of tree construction, reused
// across every tree the goroutine builds, so the training loop allocates
// only what outlives it: each tree's nodes, leaf distributions and
// bootstrap membership.
//
// A tree's bootstrap sample lives in lists: per feature, the sampled rows
// (repeated by multiplicity) in ascending order of that feature. Every
// node owns the same segment [lo,hi) of each list — one multiset of rows,
// sorted d ways — so the split search sweeps sorted values directly and a
// split stably partitions each segment, keeping both halves sorted.
type builder struct {
	m     Matrix
	y     []int
	order [][]int32 // shared per-feature argsort of all rows (read-only)
	cfg   Config

	nodes []FlatNode // current tree under construction (preorder)
	probs []float64  // its leaf distributions, NumClasses per leaf
	mult  []int32    // bootstrap multiplicity of each row
	lists [][]int32  // per-feature sorted bootstrap rows
	left  []bool     // per row: side of the split being applied
	spill []int32    // stable-partition spill buffer
	perm  []int      // feature shuffle of the split search
	lc    []int      // left class counts of the sweep
	tc    []int      // class counts of the node under construction
}

func newBuilder(m Matrix, y []int, order [][]int32, cfg Config) *builder {
	n := m.N
	flat := make([]int32, len(order)*n)
	lists := make([][]int32, len(order))
	for f := range lists {
		lists[f] = flat[f*n : (f+1)*n]
	}
	return &builder{
		m: m, y: y, order: order, cfg: cfg,
		mult:  make([]int32, n),
		lists: lists,
		left:  make([]bool, n),
		spill: make([]int32, n),
		perm:  make([]int, len(m.Cols)),
		lc:    make([]int, cfg.NumClasses),
		tc:    make([]int, cfg.NumClasses),
	}
}

// train grows one tree: bootstrap-sample the rows with rng, expand the
// sample along each feature's order, then build the preorder node array.
// The returned tree owns its nodes.
func (b *builder) train(cum []float64, rng *rand.Rand) (tree, []bool) {
	n := b.m.N
	bag := make([]bool, n)
	clear(b.mult)
	for i := 0; i < n; i++ {
		var pick int
		if cum != nil {
			pick = searchCum(cum, rng.Float64()*cum[n-1])
		} else {
			pick = rng.Intn(n)
		}
		b.mult[pick]++
		bag[pick] = true
	}
	for f, ord := range b.order {
		list, k := b.lists[f], 0
		for _, r := range ord {
			for c := b.mult[r]; c > 0; c-- {
				list[k] = r
				k++
			}
		}
	}
	b.nodes, b.probs = b.nodes[:0], b.probs[:0]
	b.build(0, n, rng, 0)
	// Copy out exact-size node and leaf-distribution arrays; leaves took
	// their NumClasses blocks of probs in preorder.
	nodes := slices.Clone(b.nodes)
	probs := slices.Clone(b.probs)
	k := b.cfg.NumClasses
	for i := range nodes {
		if nodes[i].Left < 0 {
			nodes[i].Probs, probs = probs[:k:k], probs[k:]
		}
	}
	return tree{nodes: nodes}, bag
}

// build appends the subtree over the rows in segment [lo,hi) to b.nodes
// in preorder and returns its root index. The lists are partitioned in
// place down the recursion.
func (b *builder) build(lo, hi int, rng *rand.Rand, depth int) int {
	at := len(b.nodes)
	clear(b.tc)
	for _, r := range b.lists[0][lo:hi] {
		b.tc[b.y[r]]++
	}
	if depth >= b.cfg.MaxDepth || hi-lo <= b.cfg.MinLeaf || b.pure() {
		b.leaf(hi - lo)
		return at
	}
	feat, thr, ok := b.bestSplit(lo, hi, rng)
	if !ok {
		b.leaf(hi - lo)
		return at
	}
	mid := b.partition(lo, hi, feat, thr)
	if mid == lo || mid == hi {
		b.leaf(hi - lo)
		return at
	}
	b.nodes = append(b.nodes, FlatNode{})
	l := b.build(lo, mid, rng, depth+1)
	r := b.build(mid, hi, rng, depth+1)
	nd := &b.nodes[at]
	nd.Feature, nd.Threshold, nd.Left, nd.Right = feat, thr, l, r
	return at
}

// pure reports whether the node holds a single class.
func (b *builder) pure() bool {
	seen := 0
	for _, c := range b.tc {
		if c > 0 {
			seen++
		}
	}
	return seen <= 1
}

// leaf appends a leaf over the node's k rows; its class distribution
// goes to b.probs until train copies it out.
func (b *builder) leaf(k int) {
	for _, c := range b.tc {
		b.probs = append(b.probs, float64(c)/float64(k))
	}
	b.nodes = append(b.nodes, FlatNode{Left: -1, Right: -1})
}

// partition sends every row of segment [lo,hi) to the (<= thr, > thr)
// side of the split and returns the boundary. Each feature's segment is
// stably partitioned, so both halves stay sorted by that feature.
//
//cabd:hotpath
func (b *builder) partition(lo, hi, feat int, thr float64) int {
	col := b.m.Cols[feat]
	mid := lo
	for _, r := range b.lists[feat][lo:hi] {
		b.left[r] = col[r] <= thr
		if b.left[r] {
			mid++
		}
	}
	if mid == lo || mid == hi {
		return mid
	}
	for f, list := range b.lists {
		if f == feat {
			continue // sorted by the split feature: already left | right
		}
		seg, k, s := list[lo:hi], 0, 0
		for _, r := range seg {
			if b.left[r] {
				seg[k] = r
				k++
			} else {
				b.spill[s] = r
				s++
			}
		}
		copy(seg[k:], b.spill[:s])
	}
	return mid
}

// bestSplit searches cfg.MTry random features for the Gini-optimal
// threshold over segment [lo,hi), whose class counts are in b.tc. Each
// feature's segment is already sorted, so the search is one O(k) sweep
// of the class counts across the boundaries between distinct values.
// The Gini at such a boundary depends only on the counts at or below
// it, never on the order among tied values, and the thresholds are
// midpoints of the same adjacent distinct values, so the sweep selects
// exactly the split a per-node sort would.
//
//cabd:hotpath
func (b *builder) bestSplit(lo, hi int, rng *rand.Rand) (int, float64, bool) {
	// rng.Perm(d)[:MTry] into scratch: the same Intn(i+1) draws.
	perm := b.perm
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	k := hi - lo
	bestGini := math.Inf(1)
	bestFeat, bestThr, found := 0, 0.0, false
	for _, feat := range perm[:b.cfg.MTry] {
		col := b.m.Cols[feat]
		seg := b.lists[feat][lo:hi]
		clear(b.lc)
		ln := 0
		for v := 1; v < k; v++ {
			prev, cur := col[seg[v-1]], col[seg[v]]
			b.lc[b.y[seg[v-1]]]++
			ln++
			//cabd:lint-ignore floateq adjacent sorted feature values: only bit-identical ones admit no threshold between them
			if cur == prev {
				continue
			}
			thr := (cur + prev) / 2
			g := weightedGini(b.lc, ln) + weightedGiniRest(b.tc, b.lc, k-ln)
			if g < bestGini {
				bestGini, bestFeat, bestThr, found = g, feat, thr, true
			}
		}
	}
	return bestFeat, bestThr, found
}

func weightedGini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	var s float64
	for _, c := range counts {
		p := float64(c) / float64(n)
		s += p * p
	}
	return float64(n) * (1 - s)
}

// weightedGiniRest is weightedGini over the complement counts
// (total[c] - left[c]) without materializing them.
func weightedGiniRest(total, left []int, n int) float64 {
	if n == 0 {
		return 0
	}
	var s float64
	for c := range total {
		p := float64(total[c]-left[c]) / float64(n)
		s += p * p
	}
	return float64(n) * (1 - s)
}

// PredictProba returns the class probability distribution for x, averaged
// over all trees. It is the per-row differential oracle for
// PredictProbaBatch.
func (f *Forest) PredictProba(x []float64) []float64 {
	probs := make([]float64, f.numClasses)
	if len(f.trees) == 0 {
		return probs
	}
	for _, t := range f.trees {
		leaf := t.leafFor(x)
		for c, p := range leaf {
			probs[c] += p
		}
	}
	for c := range probs {
		probs[c] /= float64(len(f.trees))
	}
	return probs
}

// PredictProbaOOB returns the out-of-bag class distribution of training
// row i with features x: only trees whose bootstrap sample excluded row i
// vote, so the estimate is not self-fulfilling. When every tree saw the
// row (possible for heavily weighted rows), it falls back to the full
// ensemble. It is the per-row differential oracle for
// PredictProbaOOBBatch.
func (f *Forest) PredictProbaOOB(i int, x []float64) []float64 {
	probs := make([]float64, f.numClasses)
	voters := 0
	for t, tr := range f.trees {
		if f.inBag[t][i] {
			continue
		}
		leaf := tr.leafFor(x)
		for c, p := range leaf {
			probs[c] += p
		}
		voters++
	}
	if voters == 0 {
		return f.PredictProba(x)
	}
	for c := range probs {
		probs[c] /= float64(voters)
	}
	return probs
}

// Predict returns the most probable class for x.
func (f *Forest) Predict(x []float64) int {
	probs := f.PredictProba(x)
	best, bi := -1.0, 0
	for c, p := range probs {
		if p > best {
			best, bi = p, c
		}
	}
	return bi
}

// NumClasses returns the size of the label space the forest was trained on.
func (f *Forest) NumClasses() int { return f.numClasses }

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }
