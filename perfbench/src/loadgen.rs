//! Load generation from one process: a closed loop (each client sends
//! its next request when the previous one returns) and an open loop
//! (requests are due on a schedule and are timed from their due time, so
//! a stalled request charges its delay to every request queued behind
//! it).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dae_dvfs::ServePath;
use tinynn::models::synth::SplitMix64;

use crate::client::ReceiptFields;

/// How one exchange ended, as the sender judged it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// The response's receipt, if it carried one.
    pub receipt: Option<ReceiptFields>,
    /// Request plus response bytes on the wire.
    pub wire_bytes: u32,
    /// The response passed every output check.
    pub ok: bool,
}

/// One request's timeline, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Index of the request's key in the workload's key list.
    pub key: u32,
    /// When the request was due (closed loop: when its client was free).
    pub due_ns: u64,
    /// When its connection became free to send it.
    pub ready_ns: u64,
    /// When it was written.
    pub sent_ns: u64,
    /// When its response had been read and checked.
    pub done_ns: u64,
    /// What the exchange returned.
    pub outcome: Outcome,
}

impl Sample {
    /// End-to-end latency: from the due time, so waiting for a free
    /// connection counts.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// The round trip on the wire.
    pub fn rtt_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.sent_ns)
    }

    /// How late the generator sent a request it was free to send: the
    /// delay past both its due time and its connection becoming free.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns.max(self.ready_ns))
    }
}

/// Samples kept per load thread: a uniform reservoir past this, so the
/// harness's memory does not grow with throughput.
pub const RESERVOIR: usize = 1 << 13;

/// What a set of load threads saw: a uniform sample of request
/// timelines, and exact tallies over every request.
#[derive(Debug, Clone, Default)]
pub struct Load {
    /// Every request while fewer than [`RESERVOIR`] per thread, a
    /// uniform sample of them after.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub sent: u64,
    /// Requests whose response failed a check.
    pub failed: u64,
    /// Responses per serving path, indexed like [`ServePath::LABELS`].
    pub paths: [u64; ServePath::COUNT],
}

impl Load {
    fn record(&mut self, sample: Sample, rng: &mut SplitMix64) {
        self.sent += 1;
        self.failed += u64::from(!sample.outcome.ok);
        if let Some(r) = sample.outcome.receipt {
            self.paths[r.path] += 1;
        }
        if self.samples.len() < RESERVOIR {
            self.samples.push(sample);
        } else {
            let slot = (rng.next_u64() % self.sent) as usize;
            if slot < RESERVOIR {
                self.samples[slot] = sample;
            }
        }
    }

    /// Folds another load in (tallies add, samples concatenate).
    pub fn absorb(&mut self, other: Load) {
        self.samples.extend(other.samples);
        self.sent += other.sent;
        self.failed += other.failed;
        for (a, b) in self.paths.iter_mut().zip(other.paths) {
            *a += b;
        }
    }

    /// Responses that came back on the path labelled `label`.
    pub fn path(&self, label: &str) -> u64 {
        ServePath::LABELS
            .iter()
            .position(|l| *l == label)
            .map_or(0, |i| self.paths[i])
    }
}

fn ns(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Seeded arrival offsets of a Poisson process at `rate` per second
/// over `span`, conditioned on its expected count: that many uniform
/// instants, sorted. Fixing the count keeps the offered load identical
/// from seed to seed while arrivals stay bursty.
pub fn poisson_schedule(rate: f64, span: Duration, mut unit: impl FnMut() -> f64) -> Vec<u64> {
    let n = (rate * span.as_secs_f64()).round() as usize;
    let mut due: Vec<u64> = (0..n)
        .map(|_| (unit() * span.as_nanos() as f64) as u64)
        .collect();
    due.sort_unstable();
    due
}

/// Drives `due_ns.len()` requests over `conns` connections: each
/// connection takes the next request in order, waits for its due time
/// (if it is not already late), sends it with `send`, and records the
/// timeline. `connect` builds one connection's state on its own thread.
pub fn open_loop<S, E>(
    conns: usize,
    epoch: Instant,
    due_ns: &[u64],
    connect: impl Fn(usize) -> Result<S, E> + Sync,
    send: impl Fn(&mut S, usize) -> Outcome + Sync,
) -> Result<Load, E>
where
    E: Send,
{
    let next = AtomicUsize::new(0);
    run_threads(conns, &connect, |_, state, out| loop {
        let ready = Instant::now();
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&due) = due_ns.get(i) else {
            return Ok(());
        };
        let due_at = epoch + Duration::from_nanos(due);
        let now = Instant::now();
        if due_at > now {
            std::thread::sleep(due_at - now);
        }
        out(exchange(epoch, state, &send, i, due, ns(epoch, ready)));
    })
}

/// Drives `clients` closed-loop connections: each asks `next` for its
/// next key (given its client index and request count) until `next`
/// returns `None` or `deadline` passes.
pub fn closed_loop<S, E>(
    clients: usize,
    epoch: Instant,
    deadline: Option<Instant>,
    connect: impl Fn(usize) -> Result<S, E> + Sync,
    next: impl Fn(usize, u64) -> Option<usize> + Sync,
    send: impl Fn(&mut S, usize) -> Outcome + Sync,
) -> Result<Load, E>
where
    E: Send,
{
    run_threads(clients, &connect, |client, state, out| {
        let mut j = 0;
        while deadline.is_none_or(|d| Instant::now() < d) {
            let Some(key) = next(client, j) else {
                break;
            };
            j += 1;
            let now = ns(epoch, Instant::now());
            out(exchange(epoch, state, &send, key, now, now));
        }
        Ok(())
    })
}

fn exchange<S>(
    epoch: Instant,
    state: &mut S,
    send: &impl Fn(&mut S, usize) -> Outcome,
    key: usize,
    due_ns: u64,
    ready_ns: u64,
) -> Sample {
    let sent = Instant::now();
    let outcome = send(state, key);
    let done = Instant::now();
    Sample {
        key: key as u32,
        due_ns,
        ready_ns,
        sent_ns: ns(epoch, sent),
        done_ns: ns(epoch, done),
        outcome,
    }
}

/// Spawns `n` scoped load threads (excluded from allocation counting),
/// each with its own connection state, and folds their loads together.
/// `body` gets its thread index, the state and a sink for samples.
fn run_threads<S, E: Send>(
    n: usize,
    connect: &(impl Fn(usize) -> Result<S, E> + Sync),
    body: impl Fn(usize, &mut S, &mut dyn FnMut(Sample)) -> Result<(), E> + Sync,
) -> Result<Load, E> {
    let body = &body;
    let per_thread: Vec<Result<Load, E>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                s.spawn(move || {
                    crate::alloc::exclude_this_thread();
                    let mut state = connect(t)?;
                    let mut load = Load::default();
                    let mut rng = SplitMix64::new(t as u64 + 1);
                    body(t, &mut state, &mut |sample| load.record(sample, &mut rng))?;
                    Ok(load)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    let mut all = Load::default();
    for load in per_thread {
        all.absorb(load?);
    }
    all.samples.sort_by_key(|s| (s.due_ns, s.sent_ns));
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn latency_counts_from_due_time_and_lag_from_readiness() {
        let s = Sample {
            due_ns: 10,
            ready_ns: 50,
            sent_ns: 53,
            done_ns: 80,
            ..Sample::default()
        };
        assert_eq!((s.latency_ns(), s.rtt_ns(), s.lag_ns()), (70, 27, 3));
        // An early connection waits for the due time: lag is measured
        // from the due time then.
        let s = Sample {
            due_ns: 100,
            ready_ns: 20,
            sent_ns: 104,
            done_ns: 130,
            ..Sample::default()
        };
        assert_eq!((s.latency_ns(), s.lag_ns()), (30, 4));
    }

    fn stalled_run(conns: usize) -> Vec<Sample> {
        // Due every 10 ms; request 0 stalls for 45 ms, the rest take 1 ms.
        let due: Vec<u64> = (0..4).map(|i| i * 10 * MS).collect();
        open_loop(
            conns,
            Instant::now(),
            &due,
            |_| Ok::<(), ()>(()),
            |_, i| {
                std::thread::sleep(Duration::from_millis(if i == 0 { 45 } else { 1 }));
                Outcome::default()
            },
        )
        .expect("no connection fails")
        .samples
    }

    #[test]
    fn a_stalled_request_delays_the_requests_queued_behind_it() {
        let samples = stalled_run(1);
        assert_eq!(samples.len(), 4);
        // Request i (due at 10·i ms) cannot be sent before request 0
        // returns at ≥ 45 ms, so it waits ≥ 45 − 10·i ms past its due time.
        for (i, s) in samples.iter().enumerate().skip(1) {
            let waited = 45 * MS - 10 * MS * i as u64;
            assert!(s.latency_ns() >= waited, "request {i}: {s:?}");
            assert!(s.sent_ns >= samples[0].done_ns);
            // It was late because the connection was busy, not because
            // the generator was: lag stays small.
            assert!(s.lag_ns() < 20 * MS, "request {i}: {s:?}");
        }
    }

    #[test]
    fn a_second_connection_absorbs_the_stall() {
        let samples = stalled_run(2);
        for s in samples.iter().skip(1) {
            assert!(s.latency_ns() < 10 * MS, "{s:?}");
        }
    }

    #[test]
    fn poisson_schedule_is_sorted_bursty_and_exactly_sized() {
        let mut state = 1u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let due = poisson_schedule(1000.0, Duration::from_secs(2), &mut unit);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(due.len(), 2000);
        assert!(*due.last().unwrap() < 2_000_000_000);
        // Bursty, not paced: some gaps are far below and far above 1 ms.
        let gaps: Vec<u64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().any(|&g| g < 100_000) && gaps.iter().any(|&g| g > 3_000_000));
    }
}
