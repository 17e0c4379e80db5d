package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/shard"
	"repro/internal/vec"
)

// swapIndex stores one point under id 0. Its NearestNeighbor installs next on
// srv before answering: a follower re-bootstrap (SetIndex with a fresh index)
// landing in the middle of a request.
type swapIndex struct {
	Index // nil: a test calls only the methods below
	pt    vec.Point
	srv   *Server
	next  Index
}

func (x *swapIndex) Dim() int { return len(x.pt) }

func (x *swapIndex) Point(id int) (vec.Point, bool) { return x.pt, id == 0 }

func (x *swapIndex) NearestNeighbor(q vec.Point) (nncell.Neighbor, error) {
	if x.next != nil {
		x.srv.SetIndex(x.next)
	}
	return nncell.Neighbor{ID: 0, Dist2: vec.Euclidean{}.Dist2(q, x.pt)}, nil
}

// A request is answered from the index it started on: /v1/nn's id, dist2 and
// point all come from one index even when SetIndex swaps in another that
// stores a different point under the same id.
func TestHandlersResolveIndexOnce(t *testing.T) {
	second := &swapIndex{pt: vec.Point{0.9, 0.9, 0.9}}
	first := &swapIndex{pt: vec.Point{0.1, 0.1, 0.1}, next: second}
	s := New(first, Config{})
	first.srv = s
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	q := vec.Point{0.2, 0.2, 0.2}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/nn", queryRequest{Point: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got nnResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != 0 || !slices.Equal(got.Point, first.pt) || got.Dist2 != (vec.Euclidean{}).Dist2(q, got.Point) {
		t.Fatalf("answer mixes two indexes: %+v (the query ran on point %v)", got, first.pt)
	}
}

// /v1/knn with k = 1 runs KNearest, /v1/nn runs NearestNeighbor. On a sharded
// index both must return the same id and dist2 — exact distance ties included,
// where each keeps the lower global id — under either routing policy.
func TestKNNOneMatchesNN(t *testing.T) {
	// 4 a side at odd multiples of 1/8: coordinates and squared distances are
	// exact, so queries on multiples of 1/4 tie between 2, 4 or 8 points.
	pts := dataset.Grid(nil, 64, testDim, 0)
	rng := rand.New(rand.NewSource(93))
	var queries []vec.Point
	for i := 0; i < 30; i++ {
		q := make(vec.Point, testDim)
		for j := range q {
			switch i % 3 {
			case 0: // in bounds
				q[j] = rng.Float64()
			case 1: // lattice ties, faces and corners
				q[j] = float64(rng.Intn(5)) / 4
			default: // out of bounds on some axes, ties on others
				q[j] = float64(rng.Intn(9))/4 - 0.5
			}
		}
		queries = append(queries, q)
	}
	queries = append(queries, vec.Point{-0.5, 0.5, 0.5}, vec.Point{2, 2, 2})

	for _, route := range []shard.RouteKind{shard.RouteHash, shard.RouteGrid} {
		sx, err := shard.Build(pts, vec.UnitCube(testDim), shard.Options{
			Shards: 4,
			Route:  route,
			Index:  nncell.Options{Algorithm: nncell.NNDirection},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(sx, Config{}).Handler())
		for _, q := range queries {
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/nn", queryRequest{Point: q})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%v nn %v: status %d: %s", route, q, resp.StatusCode, body)
			}
			var nn nnResponse
			if err := json.Unmarshal(body, &nn); err != nil {
				t.Fatal(err)
			}
			resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/knn", queryRequest{Point: q, K: 1})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%v knn %v: status %d: %s", route, q, resp.StatusCode, body)
			}
			var knn struct {
				Neighbors []neighborResponse `json:"neighbors"`
			}
			if err := json.Unmarshal(body, &knn); err != nil {
				t.Fatal(err)
			}
			want := neighborResponse{ID: nn.ID, Dist2: nn.Dist2}
			if len(knn.Neighbors) != 1 || knn.Neighbors[0] != want {
				t.Fatalf("%v q=%v: knn k=1 %+v, nn %+v", route, q, knn.Neighbors, want)
			}
		}
		ts.Close()
	}
}
