// Command nncell builds an NN-cell index over a synthetic workload, runs a
// query batch, and reports structural and performance statistics. It is the
// quickest way to see the paper's approach end to end:
//
//	nncell -n 2000 -d 8 -alg sphere -queries 500
//	nncell -n 1000 -d 12 -alg nndir
//	nncell -demo           # 2-D ASCII NN-diagram (paper Fig. 1/2)
//
// The serve subcommand exposes an index over HTTP (see internal/server for
// the endpoints and the /metrics observability surface). What it serves is
// always a shard.Sharded, of one shard unless -shards or the snapshot says
// otherwise:
//
//	nncell -n 2000 -d 8 -save index.bin -queries 0
//	nncell serve -addr :8080 -load index.bin
//	nncell serve -addr :8080 -n 2000 -d 8    # build synthetic, then serve
//	nncell serve -addr :8080 -n 2000 -d 8 -shards 4   # writes lock one shard of four
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/iofault"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/replica"
	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/vec"
	"repro/internal/voronoi"
	"repro/internal/wal"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	var (
		n        = flag.Int("n", 2000, "number of data points")
		saveFile = flag.String("save", "", "write the built index to this file")
		loadFile = flag.String("load", "", "load the index from this file instead of building")
		d        = flag.Int("d", 8, "dimensionality")
		data     = flag.String("data", "uniform", "dataset: uniform|grid|diagonal|clustered|fourier")
		alg      = flag.String("alg", "sphere", "approximation algorithm: correct|point|sphere|nndir")
		queries  = flag.Int("queries", 500, "number of nearest-neighbor queries")
		seed     = flag.Int64("seed", 1, "random seed")
		verify   = flag.Bool("verify", true, "verify every answer against a sequential scan")
		demo     = flag.Bool("demo", false, "render a 2-D ASCII NN-diagram and exit")
	)
	flag.Parse()

	if *demo {
		runDemo(*seed)
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	pg := pager.New(pager.Config{})
	var (
		ix        *nncell.Index
		pts       []vec.Point
		buildTime time.Duration
	)
	if *loadFile != "" {
		// Build parameters describe a dataset this run will never construct;
		// ignoring them quietly would let a stale flag pair a fresh synthetic
		// ground truth with an unrelated loaded index. Say loudly that the
		// loaded index wins, and verify against its own live points only.
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "n", "d", "data", "alg":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fmt.Printf("note: %v describe a build and are ignored with -load; "+
				"verification uses the loaded index's own points\n", ignored)
		}
		f, err := os.Open(*loadFile)
		if err != nil {
			fatalf("%v", err)
		}
		start := time.Now()
		ix, err = nncell.Load(f, pg)
		f.Close()
		if err != nil {
			fatalf("load: %v", err)
		}
		buildTime = time.Since(start)
		*d = ix.Dim()
		for _, id := range ix.IDs() {
			p, _ := ix.Point(id)
			pts = append(pts, p)
		}
		fmt.Printf("loaded NN-cell index from %s: %d points, d=%d\n", *loadFile, ix.Len(), ix.Dim())
	} else {
		algorithm, err := parseAlg(*alg)
		if err != nil {
			fatalf("%v", err)
		}
		pts, err = dataset.Generate(dataset.Name(*data), rng, *n, *d)
		if err != nil {
			fatalf("%v", err)
		}
		pts = dataset.Deduplicate(pts)
		fmt.Printf("building NN-cell index: %d %s points, d=%d, algorithm=%v\n",
			len(pts), *data, *d, algorithm)
		start := time.Now()
		ix, err = nncell.Build(pts, vec.UnitCube(*d), pg, nncell.Options{Algorithm: algorithm})
		if err != nil {
			fatalf("build: %v", err)
		}
		buildTime = time.Since(start)
	}
	if *saveFile != "" {
		// tmp+rename+parent-fsync: a crash mid-save never leaves a torn file
		// at the target path, and the completed rename survives power loss.
		if err := iofault.WriteAtomic(iofault.OS{}, *saveFile, ix.Save); err != nil {
			fatalf("save: %v", err)
		}
		st, _ := os.Stat(*saveFile)
		fmt.Printf("saved index to %s (%d bytes)\n", *saveFile, st.Size())
	}
	bs := ix.Stats()
	fmt.Printf("build: %v  (%d LP solves, %d pivots)\n",
		buildTime.Round(time.Millisecond), bs.LPSolves, bs.LPPivots)
	fmt.Printf("approximation volume sum: %.3f (1.0 = perfect)\n", ix.ApproxVolumeSum())

	var oracle *scan.Scanner
	if *verify {
		oracle = scan.New(pts, vec.Euclidean{}, pager.New(pager.Config{}))
	}
	// Queries cover the index's own data space — identical to the unit cube
	// for built indexes, and the right region for any loaded one.
	bounds := ix.Bounds()
	var lat stats.Histogram
	start := time.Now()
	for i := 0; i < *queries; i++ {
		q := make(vec.Point, *d)
		for j := range q {
			q[j] = bounds.Lo[j] + rng.Float64()*(bounds.Hi[j]-bounds.Lo[j])
		}
		qStart := time.Now()
		got, err := ix.NearestNeighbor(q)
		lat.Observe(time.Since(qStart))
		if err != nil {
			fatalf("query %d: %v", i, err)
		}
		if oracle != nil {
			if _, want := oracle.Nearest(q); got.Dist2 != want {
				fatalf("query %d: index answered dist² %v, scan says %v", i, got.Dist2, want)
			}
		}
	}
	elapsed := time.Since(start)
	qs := ix.Stats()
	if *queries > 0 {
		fmt.Printf("queries: %d in %v (%.1f µs/query CPU)\n",
			*queries, elapsed.Round(time.Millisecond), float64(elapsed.Microseconds())/float64(*queries))
		fmt.Printf("latency: %s\n", lat.String())
		fmt.Printf("candidates/query: %.2f   fallbacks: %d\n",
			float64(qs.Candidates)/float64(qs.Queries), qs.Fallbacks)
		if oracle != nil {
			fmt.Println("verification: every answer matched the sequential scan")
		}
	}
}

// serveMain implements `nncell serve`: load (or build) a sharded index, then
// serve it over HTTP until SIGINT/SIGTERM, draining in-flight requests on the
// way out.
func serveMain(args []string) {
	fs := flag.NewFlagSet("nncell serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		loadFile   = fs.String("load", "", "serve the index saved in this file (a serve snapshot, or an `nncell -save` file: served as one shard)")
		shards     = fs.Int("shards", 1, "partition the index into this many shards (writes lock one shard; see -route for query fan-out)")
		routeName  = fs.String("route", "hash", "shard routing policy: hash (uniform, all-shard fan-out) or grid (space tiles, ring-pruned fan-out)")
		n          = fs.Int("n", 2000, "points for a synthetic index (when -load is absent; 0 bootstraps an empty index that accepts inserts)")
		d          = fs.Int("d", 8, "dimensionality of the synthetic index")
		data       = fs.String("data", "uniform", "synthetic dataset: uniform|grid|diagonal|clustered|fourier")
		seed       = fs.Int64("seed", 1, "random seed for the synthetic index")
		walDir     = fs.String("wal-dir", "", "write-ahead-log directory, one shard-NNNN/ log per shard: replay it on startup, then log every insert/delete (also enables /v1/repl/ so followers can replicate)")
		fsyncMode  = fs.String("fsync", "interval", "wal fsync policy: always|interval|never")
		fsyncEvery = fs.Duration("fsync-interval", 100*time.Millisecond, "fsync cadence for -fsync interval")
		follow     = fs.String("follow", "", "run as a read-only follower of this primary base URL: bootstrap from its snapshot, tail its WAL")
		lagSLO     = fs.Duration("lag-slo", 0, "follower readiness fails when lag persists longer than this (0 = no time SLO)")
	)
	// The serving flags bind into the server's own Config, defaults and all.
	cfg := server.DefaultConfig()
	fs.DurationVar(&cfg.RequestTimeout, "timeout", cfg.RequestTimeout, "per-request admission deadline")
	fs.DurationVar(&cfg.ShutdownGrace, "grace", cfg.ShutdownGrace, "shutdown drain budget")
	fs.Int64Var(&cfg.MaxBodyBytes, "max-body", cfg.MaxBodyBytes, "request body cap in bytes")
	fs.IntVar(&cfg.MaxInFlight, "max-inflight", 0, "concurrent query limit (0 = 4×GOMAXPROCS)")
	fs.IntVar(&cfg.MaxBatch, "max-batch", cfg.MaxBatch, "points per batch request")
	fs.IntVar(&cfg.MaxK, "max-k", cfg.MaxK, "largest accepted k")
	fs.StringVar(&cfg.SnapshotPath, "snapshot", "", "periodically save the serving index to this file (with -wal-dir each snapshot also compacts the log)")
	fs.DurationVar(&cfg.SnapshotEvery, "snapshot-every", cfg.SnapshotEvery, "snapshot interval")
	fs.Uint64Var(&cfg.LagSLORecords, "lag-slo-records", 0, "follower readiness fails when apply lag exceeds this many records (0 = no record SLO)")
	fs.Parse(args)
	cfg.LagSLOSeconds = lagSLO.Seconds()
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *follow != "" {
		serveFollower(*follow, *addr, cfg, explicit)
		return
	}
	if explicit["lag-slo-records"] || explicit["lag-slo"] {
		fatalf("-lag-slo-records and -lag-slo apply to followers (-follow)")
	}

	route, err := shard.ParseRouteKind(*routeName)
	if err != nil {
		fatalf("%v", err)
	}

	var policy wal.Policy
	if *walDir != "" {
		var err error
		if policy, err = wal.ParsePolicy(*fsyncMode); err != nil {
			fatalf("%v", err)
		}
	}

	// The server starts BEFORE the index exists: liveness and /metrics come
	// up immediately, readiness reports the loading/replaying phase, and
	// query traffic is shed with 503 until recovery completes.
	srv := server.New(nil, cfg)
	drain := listenAndServe(srv, *addr, "not ready: loading index")

	opts := shard.Options{Shards: *shards, Route: route}
	var ix *shard.Sharded
	start := time.Now()
	switch {
	case *loadFile != "":
		// Synthetic-build flags describe an index this run will never build.
		// Parameters the snapshot also records (-d, -shards, -route) FAIL FAST
		// on conflict — serving a 7-d snapshot to a client that asked for -d 3
		// is an operational error, not a note. The rest are merely ignored.
		var ignored []string
		for _, name := range []string{"n", "data", "seed"} {
			if explicit[name] {
				ignored = append(ignored, "-"+name)
			}
		}
		if len(ignored) > 0 {
			fmt.Printf("note: %v describe a synthetic build and are ignored with -load\n", ignored)
		}
		srv.SetNotReady("loading snapshot")
		f, err := os.Open(*loadFile)
		if err != nil {
			fatalf("%v", err)
		}
		// The stream records its own width, routing and per-shard options
		// (shard.Load tells a bare `nncell -save` file from a serve snapshot).
		ix, err = shard.Load(f, shard.Options{})
		f.Close()
		if err != nil {
			fatalf("load: %v", err)
		}
		if explicit["shards"] && *shards != ix.NumShards() {
			fatalf("load: -shards %d conflicts with the snapshot's %d shards (drop the flag, or rebuild)", *shards, ix.NumShards())
		}
		if explicit["d"] && *d != ix.Dim() {
			fatalf("load: -d %d conflicts with the snapshot's dimensionality %d", *d, ix.Dim())
		}
		if explicit["route"] && route != ix.RouteKind() {
			fatalf("load: -route %v conflicts with the snapshot's %v routing (placement is recorded in the stream)", route, ix.RouteKind())
		}
		fmt.Printf("nncell: loaded %d points (d=%d, %d shards, %v-routed, built under %v, %s kernels) from %s in %v\n",
			ix.Len(), ix.Dim(), ix.NumShards(), ix.RouteKind(), ix.Shard(0).Algorithm(), nncell.KernelSet(), *loadFile, time.Since(start).Round(time.Millisecond))
	case *n == 0:
		// Empty bootstrap: start with zero points and let routed inserts
		// (WAL-replayed or live) populate the index. The data space defaults
		// to the unit cube of the requested dimensionality.
		srv.SetNotReady("bootstrapping empty index")
		if ix, err = shard.NewEmpty(*d, vec.UnitCube(*d), opts); err != nil {
			fatalf("bootstrap: %v", err)
		}
		fmt.Printf("nncell: bootstrapped empty index (d=%d, %d %v-routed shards)\n", *d, ix.NumShards(), ix.RouteKind())
	default:
		srv.SetNotReady("building index")
		pts, err := dataset.Generate(dataset.Name(*data), rand.New(rand.NewSource(*seed)), *n, *d)
		if err != nil {
			fatalf("%v", err)
		}
		pts = dataset.Deduplicate(pts)
		if ix, err = shard.Build(pts, vec.UnitCube(*d), opts); err != nil {
			fatalf("build: %v", err)
		}
		fmt.Printf("nncell: built synthetic index, %d %s points (d=%d, %s kernels) across %d %v-routed shards in %v\n",
			len(pts), *data, *d, nncell.KernelSet(), ix.NumShards(), ix.RouteKind(), time.Since(start).Round(time.Millisecond))
	}

	// Durability: replay first (recovering the acknowledged mutations of the
	// previous lifetime), then open fresh segments and attach, so every
	// mutation served below is logged before it is acknowledged.
	if *walDir != "" {
		srv.SetNotReady("replaying wal")
		rs, err := ix.Recover(nil, *walDir)
		if err != nil {
			fatalf("wal replay: %v", err)
		}
		if err := ix.OpenWALs(*walDir, wal.Options{Policy: policy, Interval: *fsyncEvery}); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("nncell: wal replay: %d records from %d segments (%d applied, %d stale, %d torn) in %v\n",
			rs.Records, rs.Segments, rs.Applied, rs.Stale, rs.TornSegments, rs.Duration.Round(time.Millisecond))
		srv.SetRecovery(server.RecoveryInfo{
			SnapshotLoaded: *loadFile != "",
			WALDir:         *walDir,
			Stats:          rs,
		})

		// A durable server is a capable primary: mount the shipping protocol
		// so followers can bootstrap from a consistent snapshot and tail the
		// logs (see internal/replica; followers run with -follow).
		src, err := replica.NewSource(replica.ShardedPrimary(ix), nil)
		if err != nil {
			fatalf("replication source: %v", err)
		}
		srv.SetReplSource(src)
		fmt.Printf("nncell: replication source mounted at /v1/repl/ (boot %s)\n", src.BootID())
	}

	srv.SetIndex(ix)
	fmt.Printf("nncell: serving on http://%s\n", srv.Addr())

	// Close drains pending repairs, then closes whatever logs are attached.
	drain(func() error {
		if err := ix.Close(); err != nil {
			return fmt.Errorf("closing wal: %w", err)
		}
		return nil
	})
}

// serveFollower implements `nncell serve -follow <primary-url>`: bootstrap
// a read-only replica from the primary's snapshot, tail its shipped WAL
// segments, and serve queries with lag-aware readiness — /healthz fails
// while bootstrapping or over the lag SLO, which is how the read router
// decides to shed this node.
func serveFollower(primary, addr string, cfg server.Config, explicit map[string]bool) {
	for _, name := range []string{"load", "wal-dir", "fsync", "fsync-interval", "snapshot", "snapshot-every",
		"shards", "route", "n", "d", "data", "seed"} {
		if explicit[name] {
			fatalf("-%s does not apply with -follow: a follower's index, shape and durability come from the primary", name)
		}
	}
	primary = strings.TrimRight(primary, "/")

	// The freshly loaded index travels from Load to OnReplica through this
	// box; both run sequentially on the follower's goroutine.
	var pending atomic.Pointer[shard.Sharded]
	var srv *server.Server
	fol, err := replica.NewFollower(replica.Config{
		Primary: primary,
		Load: func(r io.Reader) (replica.Replica, error) {
			sx, err := shard.Load(r, shard.Options{})
			if err != nil {
				return nil, err
			}
			pending.Store(sx)
			return replica.ShardedReplica(sx), nil
		},
		OnReplica: func(replica.Replica) {
			if sx := pending.Load(); sx != nil {
				srv.SetIndex(sx)
				fmt.Printf("nncell: follower bootstrapped: %d points (d=%d, %d shards) from %s\n",
					sx.Len(), sx.Dim(), sx.NumShards(), primary)
			}
		},
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "nncell: follower: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatalf("follower: %v", err)
	}

	cfg.ReadOnly = true
	cfg.Follower = fol
	srv = server.New(nil, cfg)
	srv.SetNotReady("follower bootstrapping from " + primary)
	drain := listenAndServe(srv, addr, "read-only follower of "+primary)
	fol.Start()
	drain(func() error { fol.Stop(); return nil })
}

// listenAndServe binds addr and serves srv in the background until SIGINT or
// SIGTERM. The drain it returns waits until the in-flight requests have
// drained, runs release, and exits non-zero on an error of either.
func listenAndServe(srv *server.Server, addr, note string) (drain func(release func() error)) {
	if err := srv.Listen(addr); err != nil {
		fatalf("%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx) }()
	fmt.Printf("nncell: listening on http://%s (%s)\n", srv.Addr(), note)
	return func(release func() error) {
		defer stop()
		err := <-serveDone
		if rerr := release(); rerr != nil && err == nil {
			err = rerr
		}
		if err != nil {
			fatalf("serve: %v", err)
		}
		fmt.Println("nncell: shutdown complete (in-flight requests drained)")
	}
}

func runDemo(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pts := dataset.Uniform(rng, 12, 2)
	fmt.Println("NN-diagram of 12 uniform points (each letter = one cell, * = data point):")
	fmt.Print(voronoi.Render(pts, vec.UnitCube(2), 72, 24))
	ix, err := nncell.Build(pts, vec.UnitCube(2), pager.New(pager.Config{}), nncell.Options{Algorithm: nncell.Correct})
	if err != nil {
		fatalf("build: %v", err)
	}
	q := vec.Point{rng.Float64(), rng.Float64()}
	nb, err := ix.NearestNeighbor(q)
	if err != nil {
		fatalf("query: %v", err)
	}
	cell, _ := ix.CellApprox(nb.ID)
	fmt.Printf("\nquery %v -> nearest neighbor is point %c at %v\n", q, 'a'+nb.ID%26, pts[nb.ID])
	fmt.Printf("its cell's MBR approximation: %v\n", cell)
}

func parseAlg(s string) (nncell.Algorithm, error) {
	switch s {
	case "correct":
		return nncell.Correct, nil
	case "point":
		return nncell.PointAlg, nil
	case "sphere":
		return nncell.Sphere, nil
	case "nndir", "nn-direction":
		return nncell.NNDirection, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (correct|point|sphere|nndir)", s)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "nncell: "+format+"\n", args...)
	os.Exit(1)
}
