package wl

import (
	"fmt"

	"fraccascade/internal/geom"
	"fraccascade/internal/tree"
)

// Result is one per-node catalog answer: the smallest native key ≥ the
// query key in that node's catalog, with its payload.
type Result struct {
	Node    int64 `json:"node"`
	Key     int64 `json:"key"`
	Payload int64 `json:"payload"`
}

// Expect is the correct answer to one query: Results for catalog queries,
// Region for point queries, Cell for spatial queries.
type Expect struct {
	Results []Result
	Region  int
	Cell    int
}

// Oracle answers queries by brute force: successor lookups in each native
// catalog along the path, and a scan of every chain or cell for geometry.
type Oracle struct {
	Cat *Catalogs
	Geo *Geometry // nil when only catalog queries are checked
}

// Answer returns q's correct answer.
func (o *Oracle) Answer(q Query) (Expect, error) {
	switch q.Kind {
	case KindCatalog:
		if q.Shard < 0 || q.Shard >= len(o.Cat.Trees) {
			return Expect{}, fmt.Errorf("oracle: shard %d out of range", q.Shard)
		}
		path := o.Cat.Trees[q.Shard].RootPath(tree.NodeID(q.Leaf))
		res := make([]Result, len(path))
		for i, v := range path {
			c := o.Cat.Native[q.Shard][v]
			e := c.At(c.Succ(q.Key))
			res[i] = Result{Node: int64(v), Key: e.Key, Payload: int64(e.Payload)}
		}
		return Expect{Results: res}, nil
	case KindPoint:
		r, err := o.Geo.Sub.LocateBrute(geom.Point{X: q.X, Y: q.Y})
		return Expect{Region: r}, err
	case KindSpatial:
		c, err := o.Geo.Cx.LocateBrute(q.X, q.Y, q.Z)
		return Expect{Cell: c}, err
	}
	return Expect{}, fmt.Errorf("oracle: unknown kind %q", q.Kind)
}

// AnswerAll answers every query of every request.
func (o *Oracle) AnswerAll(reqs [][]Query) ([][]Expect, error) {
	out := make([][]Expect, len(reqs))
	for i, req := range reqs {
		out[i] = make([]Expect, len(req))
		for j, q := range req {
			e, err := o.Answer(q)
			if err != nil {
				return nil, err
			}
			out[i][j] = e
		}
	}
	return out, nil
}

// SameResults reports whether got equals want node for node.
func SameResults(got, want []Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
