package serve

import (
	"errors"
	"sync"
	"time"

	"predtop/internal/obs"
	"predtop/internal/predictor"
	"predtop/internal/stage"
)

// Metric names exported by the batch coalescer.
const (
	BatchesMetric         = "predtop_serve_batches_total"
	BatchedRequestsMetric = "predtop_serve_batched_requests_total"
	BatchSizeMetric       = "predtop_serve_batch_size"
	BatchMaxMetric        = "predtop_serve_batch_max"
	QueueDepthMetric      = "predtop_serve_queue_depth"
	// PadWasteMetric records, per per-model group of a batch, the fraction
	// of the padded graph stack spent on padding rows, 1 − Σnᵢ/(B·max nᵢ).
	PadWasteMetric = "predtop_serve_batch_pad_waste"
)

// errCoalescerClosed is returned by submit after close — the server maps it
// to 503 during shutdown.
var errCoalescerClosed = errors.New("serve: coalescer closed")

// predictJob is one request's slot in a batch: its resolved predictor, its
// encoded stage graph, and the channel the runner closes once out is final.
// The dispatcher stamps the phase boundaries every request trace is built
// from: enqueue → dequeued into a batch → batched forward start/end.
type predictJob struct {
	tr   predictor.Trained
	enc  *stage.Encoded
	out  float64
	done chan struct{}

	tEnq      time.Time // submit called (request joined the queue)
	tDeq      time.Time // dispatcher pulled it into the current batch
	tFwd0     time.Time // its group's batched forward started
	tFwd1     time.Time // its group's batched forward finished
	batchSize int       // size of the batch it rode in
}

// coalescer folds concurrent predictions into batched forwards. Submitted
// jobs queue on a channel; the dispatcher takes the first job of a batch,
// keeps collecting until the batch is full or the coalescing window expires,
// then fans the whole batch through Trained.PredictEncodedBatch (grouped by
// predictor, so a mixed-model batch still runs each model's graphs as one
// batched call). A job's result does not depend on the batch it rode in —
// batching is amortization, never a numerical change.
type coalescer struct {
	ch       chan *predictJob
	maxBatch int
	window   time.Duration
	workers  int

	// mu guards closed so submit never sends on a closed channel.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	batches  *obs.Counter
	requests *obs.Counter
	sizeHist *obs.Histogram
	maxGauge *obs.Gauge
	depth    *obs.Gauge // live queue depth: +1 on submit, -1 on dequeue
	maxSeen  int        // dispatcher-only; mirrors into maxGauge
	padWaste *obs.Histogram

	// beforeForward, when set, runs ahead of every batched forward (inside
	// the forward phase window) with the batch size — the hook the SLO e2e
	// test uses to slow the forward path without touching the predictor.
	beforeForward func(n int)
}

// batchSizeBuckets: 1, 2, 4, … 128 — batch size 1 lands in the first bucket,
// so `_bucket{le="1"}` < `_count` is the "batching actually happened" signal.
var batchSizeBuckets = obs.MustExpBuckets(1, 2, 8)

// padWasteBuckets partitions the [0, 1) pad-waste fraction. A B=1 or
// all-equal batch observes exactly 0 and lands in the first bucket; the tail
// buckets catch pathologically skewed batches where one giant graph pads
// everything else.
var padWasteBuckets = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9}

// newCoalescer builds an idle coalescer; call start to launch the dispatcher.
// window > 0 waits up to that long to fill a batch after its first job;
// window == 0 batches only what is already queued (no added latency).
func newCoalescer(maxBatch int, window time.Duration, workers int, metrics *obs.Registry) *coalescer {
	if maxBatch < 1 {
		maxBatch = 32
	}
	return &coalescer{
		ch:       make(chan *predictJob, 4*maxBatch),
		maxBatch: maxBatch,
		window:   window,
		workers:  workers,
		batches:  metrics.Counter(BatchesMetric),
		requests: metrics.Counter(BatchedRequestsMetric),
		sizeHist: metrics.Histogram(BatchSizeMetric, batchSizeBuckets),
		maxGauge: metrics.Gauge(BatchMaxMetric),
		depth:    metrics.Gauge(QueueDepthMetric),
		padWaste: metrics.Histogram(PadWasteMetric, padWasteBuckets),
	}
}

// start launches the dispatcher goroutine.
func (c *coalescer) start() {
	c.wg.Add(1)
	go c.loop()
}

// submit enqueues one prediction and blocks until its batch ran. The returned
// job carries the result plus the phase timestamps the dispatcher stamped.
func (c *coalescer) submit(tr predictor.Trained, enc *stage.Encoded) (*predictJob, error) {
	j := &predictJob{tr: tr, enc: enc, done: make(chan struct{}), tEnq: time.Now()}
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil, errCoalescerClosed
	}
	c.depth.Add(1)
	c.ch <- j
	c.mu.RUnlock()
	<-j.done
	return j, nil
}

// close stops accepting jobs, drains the queue, and waits for the dispatcher
// to exit. Safe to call once the HTTP listener no longer produces submits.
func (c *coalescer) close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.ch)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// loop is the dispatcher: one batch per iteration.
func (c *coalescer) loop() {
	defer c.wg.Done()
	batch := make([]*predictJob, 0, c.maxBatch)
	for {
		j, ok := <-c.ch
		if !ok {
			return
		}
		c.dequeued(j)
		batch = append(batch[:0], j)
		if c.window > 0 {
			timer := time.NewTimer(c.window)
		fill:
			for len(batch) < c.maxBatch {
				select {
				case j2, ok := <-c.ch:
					if !ok {
						break fill // closed mid-window: run what we have
					}
					c.dequeued(j2)
					batch = append(batch, j2)
				case <-timer.C:
					break fill
				}
			}
			timer.Stop()
		} else {
		drain:
			for len(batch) < c.maxBatch {
				select {
				case j2, ok := <-c.ch:
					if !ok {
						break drain
					}
					c.dequeued(j2)
					batch = append(batch, j2)
				default:
					break drain
				}
			}
		}
		c.run(batch)
	}
}

// dequeued stamps a job's queue-exit and mirrors the live depth gauge.
func (c *coalescer) dequeued(j *predictJob) {
	j.tDeq = time.Now()
	c.depth.Add(-1)
}

// run executes one batch: jobs grouped by predictor, one batched forward per
// group, results delivered by closing each job's done channel.
func (c *coalescer) run(batch []*predictJob) {
	type group struct {
		idx  []int
		encs []*stage.Encoded
	}
	groups := map[predictor.Trained]*group{}
	for i, j := range batch {
		g := groups[j.tr]
		if g == nil {
			g = &group{}
			groups[j.tr] = g
		}
		g.idx = append(g.idx, i)
		g.encs = append(g.encs, j.enc)
	}
	for tr, g := range groups {
		t0 := time.Now()
		if c.beforeForward != nil {
			c.beforeForward(len(batch))
		}
		outs := tr.PredictEncodedBatch(g.encs, c.workers)
		c.padWaste.Observe(padWasteFraction(g.encs))
		t1 := time.Now()
		for k, i := range g.idx {
			batch[i].out = outs[k]
			batch[i].tFwd0, batch[i].tFwd1 = t0, t1
			batch[i].batchSize = len(batch)
		}
	}
	// Every batch-level instrument moves before the first reply is
	// released: a client that scrapes /metrics the moment its answer arrives
	// must find its own batch already counted.
	c.batches.Inc()
	c.requests.Add(int64(len(batch)))
	c.sizeHist.Observe(float64(len(batch)))
	if len(batch) > c.maxSeen {
		c.maxSeen = len(batch)
		c.maxGauge.Set(float64(c.maxSeen))
	}
	for _, j := range batch {
		close(j.done)
	}
}

// padWasteFraction is the share of the padded batch stack occupied by padding
// rows: 1 − Σnᵢ/(B·max nᵢ). Zero for B=1 and all-equal batches; approaches 1
// as one large graph pads out many small ones. Mirrors
// tensor.BatchLayout.PadWasteFraction without building the layout.
func padWasteFraction(encs []*stage.Encoded) float64 {
	maxN, sum := 0, 0
	for _, e := range encs {
		n := e.N()
		sum += n
		if n > maxN {
			maxN = n
		}
	}
	if maxN == 0 {
		return 0
	}
	return 1 - float64(sum)/float64(len(encs)*maxN)
}
