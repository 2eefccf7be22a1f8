// Package multi extends CABD to multi-dimensional time series — the
// direction the paper's conclusion singles out as future work ("we plan
// to study how our techniques apply on multi-dimensional times series").
//
// Univariate detection is the d = 1 case of one pipeline: scoring,
// degradation, the GMM/rule bootstrap, the random forest and the CAL loop
// all run in internal/core (Detector.DetectChannelsCtx). This package
// keeps only what is multivariate:
//
//   - Series, a d-channel series;
//   - the candidate union: each standardized channel's robust z of the
//     absolute second difference flags its own candidates, and a point
//     joins with its strongest z and the channel that produced it (which
//     picks the correlation score's SAX word);
//   - the joint embedding (standardized index, standardized value_1,
//     ..., standardized value_d), over which core grows the INN with the
//     same per-offset mutual-rank bound and 5% prune;
//   - the collective merge: an anomaly flagged by two or more channels
//     is a cross-channel collective anomaly (CAPA-style).
//
// With d >= 2 core's variance score uses the total (trace) standard
// deviation and the classifier gains the cross-channel decorrelation
// column (core.Candidate.XCorr); d = 1 keeps the univariate features.
package multi

import (
	"context"

	"cabd/internal/core"
	"cabd/internal/inn"
	"cabd/internal/series"
	"cabd/internal/stats"
)

// Series is a d-dimensional, equally spaced time series: Dims holds d
// slices of equal length n. Labels, when non-nil, carries per-point
// ground truth shared across dimensions.
type Series struct {
	Name   string
	Dims   [][]float64
	Labels []series.Label
}

// NewSeries wraps dims (which must be non-empty and of equal lengths).
func NewSeries(name string, dims [][]float64) *Series {
	return &Series{Name: name, Dims: dims}
}

// Len returns the number of time steps (0 for an empty series).
func (s *Series) Len() int {
	if len(s.Dims) == 0 {
		return 0
	}
	return len(s.Dims[0])
}

// D returns the number of dimensions.
func (s *Series) D() int { return len(s.Dims) }

// LabelAt returns the ground-truth label of index i (Normal when
// unlabeled or out of range).
func (s *Series) LabelAt(i int) series.Label {
	if s.Labels == nil || i < 0 || i >= len(s.Labels) {
		return series.Normal
	}
	return s.Labels[i]
}

// AnomalyIndices returns the indices labeled as anomalies.
func (s *Series) AnomalyIndices() []int {
	var out []int
	for i, l := range s.Labels {
		if l.IsAnomaly() {
			out = append(out, i)
		}
	}
	return out
}

// ChangePointIndices returns the indices labeled as change points.
func (s *Series) ChangePointIndices() []int {
	var out []int
	for i, l := range s.Labels {
		if l == series.ChangePoint {
			out = append(out, i)
		}
	}
	return out
}

// Detector runs multivariate CABD. Options are the univariate option set,
// Strategy included.
type Detector struct {
	core *core.Detector
}

// NewDetector returns a multivariate detector.
func NewDetector(opts core.Options) *Detector {
	return &Detector{core: core.NewDetector(opts)}
}

// Options returns the resolved option set.
func (d *Detector) Options() core.Options { return d.core.Options() }

// Detect runs the unsupervised multivariate pipeline.
func (d *Detector) Detect(s *Series) *core.Result {
	res, _ := d.DetectCtx(context.Background(), s)
	return res
}

// DetectActive runs the pipeline with the CAL active-learning loop.
func (d *Detector) DetectActive(s *Series, o core.Labeler) *core.Result {
	res, _ := d.DetectActiveCtx(context.Background(), s, o)
	return res
}

// DetectCtx is Detect with cancellation and the univariate path's
// graceful degradation (see core.Detector.DetectCtx).
func (d *Detector) DetectCtx(ctx context.Context, s *Series) (*core.Result, error) {
	return d.run(ctx, s, nil)
}

// DetectActiveCtx is DetectActive with cancellation.
func (d *Detector) DetectActiveCtx(ctx context.Context, s *Series, o core.Labeler) (*core.Result, error) {
	return d.run(ctx, s, o)
}

// coocTol is the index tolerance for cross-channel co-occurrence: a
// candidate flagged within +-coocTol positions in at least two channels
// is a collective (multivariate) anomaly when it classifies as one.
const coocTol = 2

func (d *Detector) run(ctx context.Context, s *Series, o core.Labeler) (*core.Result, error) {
	n := s.Len()
	if n < 4 || s.D() == 0 {
		return &core.Result{Strategy: d.Options().Strategy}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Standardize every dimension (Equation 2 per dimension).
	std := make([][]float64, s.D())
	for k, dim := range s.Dims {
		std[k] = stats.Standardize(dim)
	}
	chHits := make([]int, n)
	env := &core.Env{
		Candidates: func() []core.Candidate { return d.candidates(std, chHits) },
		Computer:   inn.NewComputerND(embed(std)),
	}
	res, err := d.core.DetectChannelsCtx(ctx, std, o, env)
	if err != nil {
		return nil, err
	}
	// CAPA-style collective merge: an anomaly detection at an index
	// flagged by two or more channels is a cross-channel collective
	// anomaly, whatever its per-channel neighborhood size said.
	if s.D() >= 2 {
		for i := range res.Anomalies {
			if chHits[res.Anomalies[i].Index] >= 2 {
				res.Anomalies[i].Subtype = series.CollectiveAnomaly
			}
		}
	}
	return res, nil
}

// candidates is the per-channel candidate estimation: each channel's
// robust z of the absolute second difference flags its own candidates;
// the union (deduplicated by index, keeping the strongest z and the
// channel that produced it) is the joint candidate set. chHits receives,
// per index, how many channels flag a point within ±coocTol — the input
// of the collective merge.
func (d *Detector) candidates(std [][]float64, chHits []int) []core.Candidate {
	n := len(std[0])
	z := d.Options().CandidateZ
	zmax := make([]float64, n)
	zdim := make([]int, n)
	flagged := make([][]bool, len(std))
	for k, dim := range std {
		rz := stats.RobustZ(series.SecondDiff(dim))
		fl := make([]bool, n)
		for i, v := range rz {
			if v > zmax[i] {
				zmax[i] = v
				zdim[i] = k
			}
			fl[i] = v > z
		}
		flagged[k] = fl
	}
	var cands []core.Candidate
	for i, v := range zmax {
		if v > z {
			cands = append(cands, core.Candidate{Index: i, SecondDiffZ: v, Channel: zdim[i]})
		}
	}
	if len(cands) > n/4 {
		cands = topByZ(cands, n/4)
	}
	for i := range chHits {
		for k := range flagged {
			for off := -coocTol; off <= coocTol; off++ {
				if j := i + off; j >= 0 && j < n && flagged[k][j] {
					chHits[i]++
					break
				}
			}
		}
	}
	return cands
}

// topByZ keeps the k strongest candidates (guard against MAD collapse).
func topByZ(cands []core.Candidate, k int) []core.Candidate {
	if k < 1 {
		k = 1
	}
	// Selection by straightforward sort; candidate counts are small.
	out := append([]core.Candidate(nil), cands...)
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].SecondDiffZ > out[i].SecondDiffZ {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	if len(out) > k {
		out = out[:k]
	}
	// Restore index order.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].Index < out[i].Index {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// embed builds (standardized index, v_1..v_d) rows.
func embed(std [][]float64) [][]float64 {
	n := len(std[0])
	idx := make([]float64, n)
	for i := range idx {
		idx[i] = float64(i)
	}
	sidx := stats.Standardize(idx)
	pts := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, 1+len(std))
		row[0] = sidx[i]
		for k := range std {
			row[k+1] = std[k][i]
		}
		pts[i] = row
	}
	return pts
}
