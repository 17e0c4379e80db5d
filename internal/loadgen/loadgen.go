// Package loadgen drives a nearest-neighbor target with an open-loop
// request schedule: arrivals fire at a fixed rate from a wall clock,
// independent of how fast earlier requests complete. Closed-loop drivers
// (issue, wait, repeat) let a slow server throttle its own load and hide
// queueing delay; the open-loop schedule preserves it, so the reported
// onset latency includes the time a request spent waiting to be admitted
// (coordinated-omission-free).
//
// Queries are drawn from a fixed pool of points with Zipf-distributed
// popularity: the hot-spot repetition of a production read stream. An
// optional churn goroutine issues inserts at its own rate, so reads are
// measured while the index is being written.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/vec"
)

// Target is the system under test. Implementations must be safe for
// concurrent use; errors are counted, not fatal.
type Target interface {
	// Query resolves one nearest-neighbor lookup.
	Query(q vec.Point) error
	// Insert adds one point (churn traffic). Targets that do not support
	// writes may return an error; churn then shows up in Report.ChurnErrors.
	Insert(p vec.Point) error
}

// Config parameterizes one load-generation run.
type Config struct {
	QPS      float64       // target query arrival rate (required, > 0)
	Duration time.Duration // run length (required, > 0)

	// MaxOutstanding caps concurrent in-flight queries. When the cap is
	// reached, scheduled arrivals are shed (counted, not blocked) so the
	// schedule stays open-loop. 0 means 4096.
	MaxOutstanding int

	Dim    int      // query dimensionality (required, > 0)
	Bounds vec.Rect // sampling region for pool and churn points; zero value means the unit cube

	PoolSize int     // distinct query points (0 means 1024)
	ZipfS    float64 // Zipf skew parameter s > 1 (0 means 1.2)
	ZipfV    float64 // Zipf v parameter >= 1 (0 means 1)
	Seed     int64   // rng seed for pool, popularity, and churn

	ChurnQPS float64 // insert arrival rate; 0 disables churn
}

// Report summarizes a run. Every latency quantile is an exact nearest-rank
// percentile over all admitted queries.
type Report struct {
	Sent      uint64 `json:"sent"`      // arrivals admitted to the target
	Completed uint64 `json:"completed"` // queries that returned (ok or error)
	Errors    uint64 `json:"errors"`    // queries that returned an error
	Shed      uint64 `json:"shed"`      // arrivals dropped at the outstanding cap

	// Service latency: issue -> completion, per admitted query.
	ServiceP50Micros  float64 `json:"service_p50_micros"`
	ServiceP99Micros  float64 `json:"service_p99_micros"`
	ServiceMeanMicros float64 `json:"service_mean_micros"`

	// Open-loop latency: scheduled onset -> completion. Diverges from
	// service latency when the target falls behind the schedule.
	OnsetP50Micros float64 `json:"onset_p50_micros"`
	OnsetP99Micros float64 `json:"onset_p99_micros"`

	ChurnSent   uint64 `json:"churn_sent"`
	ChurnErrors uint64 `json:"churn_errors"`

	Elapsed      time.Duration `json:"elapsed_ns"`
	AchievedQPS  float64       `json:"achieved_qps"`
	EffectiveQPS float64       `json:"effective_qps"` // completions per second of wall clock
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Run executes one open-loop run against t and returns the report.
func Run(t Target, cfg Config) (Report, error) {
	if t == nil {
		return Report{}, fmt.Errorf("loadgen: nil target")
	}
	if cfg.QPS <= 0 || cfg.Duration <= 0 || cfg.Dim <= 0 {
		return Report{}, fmt.Errorf("loadgen: QPS, Duration and Dim must be positive (got %v, %v, %d)",
			cfg.QPS, cfg.Duration, cfg.Dim)
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 4096
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 1024
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.ZipfV < 1 {
		cfg.ZipfV = 1
	}
	bounds := cfg.Bounds
	if bounds.Dim() == 0 {
		bounds = vec.UnitCube(cfg.Dim)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pool := make([]vec.Point, cfg.PoolSize)
	for i := range pool {
		pool[i] = randPoint(rng, bounds)
	}
	zipf := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(cfg.PoolSize-1))

	var (
		rep      Report
		mu       sync.Mutex // guards rep counters
		inflight = make(chan struct{}, cfg.MaxOutstanding)
		wg       sync.WaitGroup
	)

	// Pre-draw the arrival sequence so the scheduling loop does no rng
	// work (the zipf source is not safe for concurrent use anyway), and
	// give every arrival its latency slots up front: the query admitted
	// k-th writes slot k and nothing else, so recording takes no lock.
	interval := time.Duration(float64(time.Second) / cfg.QPS)
	n := int(cfg.Duration / interval)
	picks := make([]uint64, n)
	for i := range picks {
		picks[i] = zipf.Uint64()
	}
	service := make([]time.Duration, n)
	onset := make([]time.Duration, n)

	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	if cfg.ChurnQPS > 0 {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			crng := rand.New(rand.NewSource(cfg.Seed + 1))
			tick := time.NewTicker(time.Duration(float64(time.Second) / cfg.ChurnQPS))
			defer tick.Stop()
			for {
				select {
				case <-churnStop:
					return
				case <-tick.C:
					p := randPoint(crng, bounds)
					err := t.Insert(p)
					mu.Lock()
					rep.ChurnSent++
					if err != nil {
						rep.ChurnErrors++
					}
					mu.Unlock()
				}
			}
		}()
	}

	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case inflight <- struct{}{}:
		default:
			rep.Shed++ // scheduler is the only writer of Shed before wg.Wait
			continue
		}
		slot := rep.Sent
		rep.Sent++
		q := pool[picks[i]]
		wg.Add(1)
		go func(q vec.Point, scheduled time.Time) {
			defer wg.Done()
			defer func() { <-inflight }()
			issued := time.Now()
			err := t.Query(q)
			done := time.Now()
			service[slot] = done.Sub(issued)
			onset[slot] = done.Sub(scheduled)
			if err != nil {
				mu.Lock()
				rep.Errors++
				mu.Unlock()
			}
		}(q, due)
	}
	wg.Wait()
	close(churnStop)
	churnWG.Wait()
	rep.Elapsed = time.Since(start)

	rep.Completed = rep.Sent
	service, onset = service[:rep.Sent], onset[:rep.Sent]
	slices.Sort(service)
	slices.Sort(onset)
	rep.ServiceP50Micros = micros(percentile(service, 0.5))
	rep.ServiceP99Micros = micros(percentile(service, 0.99))
	rep.ServiceMeanMicros = micros(mean(service))
	rep.OnsetP50Micros = micros(percentile(onset, 0.5))
	rep.OnsetP99Micros = micros(percentile(onset, 0.99))
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.AchievedQPS = float64(rep.Sent) / secs
		rep.EffectiveQPS = float64(rep.Completed) / secs
	}
	return rep, nil
}

// percentile returns the nearest-rank p-quantile of ascending samples: the
// smallest sample with at least p of all samples at or below it (0 for none).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func mean(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return sum / time.Duration(len(samples))
}

func randPoint(rng *rand.Rand, b vec.Rect) vec.Point {
	p := make(vec.Point, b.Dim())
	for i := range p {
		p[i] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
	}
	return p
}
