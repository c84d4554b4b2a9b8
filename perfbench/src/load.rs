//! Load generation: the open and closed loops that drive a request
//! target and time each request.
//!
//! In the open loop a request is due at its scheduled instant whether or
//! not earlier ones have finished, and its latency counts from that due
//! time. A stall on the generator thread therefore charges every request
//! that fell due during it. In the closed loop a request is due when its
//! caller's previous reply arrived.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// A completion, sent by the target's completion callback.
#[derive(Debug)]
pub struct Done {
    pub token: u64,
    /// When the request completed.
    pub at: Instant,
    pub ok: bool,
}

/// What the loops drive. Completions arrive on the loop's channel.
pub trait Target {
    /// Admits request `req`.
    fn admit(&mut self, req: u64, tracer: &mut Tracer) -> Result<(), String>;
    /// Settles a completion of a request that was due at `due`; returns
    /// the request's work (e.g. simulated groups), counted toward the
    /// closed loop's window.
    fn settle(&mut self, done: &Done, due: Instant, tracer: &mut Tracer) -> Result<u64, String>;
}

/// What one loop measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Per completed request, due time to completion.
    pub latency_ms: Vec<f64>,
    /// Open loop: how late the generator admitted each request.
    pub gen_lag_ms: Vec<f64>,
    /// Closed loop: each completion before the deadline, as its offset
    /// from the start of the loop and its work.
    pub finished: Vec<(Duration, u64)>,
}

struct Outstanding {
    due: HashMap<u64, Instant>,
    start: Instant,
    deadline: Option<Instant>,
}

impl Outstanding {
    fn settle(
        &mut self,
        target: &mut impl Target,
        done: Done,
        tracer: &mut Tracer,
        stats: &mut LoopStats,
    ) -> Result<(), String> {
        let due = self
            .due
            .remove(&done.token)
            .ok_or_else(|| format!("completion for unknown request {}", done.token))?;
        stats
            .latency_ms
            .push(done.at.saturating_duration_since(due).as_secs_f64() * 1e3);
        let work = target.settle(&done, due, tracer)?;
        if self.deadline.is_some_and(|d| done.at <= d) {
            stats
                .finished
                .push((done.at.saturating_duration_since(self.start), work));
        }
        Ok(())
    }

    fn recv(rx: &Receiver<Done>, tracer: &mut Tracer) -> Result<Done, String> {
        let idle = tracer.begin("gen.idle", 0);
        let r = rx
            .recv()
            .map_err(|_| "completion channel closed".to_owned());
        tracer.end(idle);
        r
    }

    fn drain(
        &mut self,
        target: &mut impl Target,
        rx: &Receiver<Done>,
        tracer: &mut Tracer,
        stats: &mut LoopStats,
    ) -> Result<(), String> {
        while !self.due.is_empty() {
            let done = Self::recv(rx, tracer)?;
            self.settle(target, done, tracer, stats)?;
        }
        Ok(())
    }
}

/// Admits requests `first..first + schedule.len()` at `start + schedule[i]`,
/// settling completions while it waits, then drains.
pub fn open_loop(
    target: &mut impl Target,
    rx: &Receiver<Done>,
    schedule: &[Duration],
    first: u64,
    tracer: &mut Tracer,
) -> Result<LoopStats, String> {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let mut out = Outstanding {
        due: HashMap::new(),
        start,
        deadline: None,
    };
    for (i, offset) in schedule.iter().enumerate() {
        let due = start + *offset;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let idle = tracer.begin("gen.idle", 0);
            let r = rx.recv_timeout(due - now);
            tracer.end(idle);
            match r {
                Ok(done) => out.settle(target, done, tracer, &mut stats)?,
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("completion channel closed".into())
                }
            }
        }
        stats
            .gen_lag_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let req = first + i as u64;
        out.due.insert(req, due);
        target.admit(req, tracer)?;
    }
    out.drain(target, rx, tracer, &mut stats)?;
    Ok(stats)
}

/// Keeps `inflight` requests outstanding from `first` on until `budget`
/// has passed, then drains. Returns the stats and the next request id.
pub fn closed_loop(
    target: &mut impl Target,
    rx: &Receiver<Done>,
    inflight: usize,
    budget: Duration,
    first: u64,
    tracer: &mut Tracer,
) -> Result<(LoopStats, u64), String> {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let deadline = start + budget;
    let mut out = Outstanding {
        due: HashMap::new(),
        start,
        deadline: Some(deadline),
    };
    let mut req = first;
    while Instant::now() < deadline {
        while out.due.len() < inflight && Instant::now() < deadline {
            out.due.insert(req, Instant::now());
            target.admit(req, tracer)?;
            req += 1;
        }
        let done = Outstanding::recv(rx, tracer)?;
        out.settle(target, done, tracer, &mut stats)?;
        while let Ok(done) = rx.try_recv() {
            out.settle(target, done, tracer, &mut stats)?;
        }
    }
    out.drain(target, rx, tracer, &mut stats)?;
    Ok((stats, req))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Sender};

    /// Serves every request instantly, except that admitting `stall_at`
    /// blocks the generator for `stall` first.
    struct Stalling {
        tx: Sender<Done>,
        stall_at: u64,
        stall: Duration,
    }

    impl Target for Stalling {
        fn admit(&mut self, req: u64, _: &mut Tracer) -> Result<(), String> {
            if req == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.tx
                .send(Done {
                    token: req,
                    at: Instant::now(),
                    ok: true,
                })
                .map_err(|e| e.to_string())
        }

        fn settle(&mut self, _: &Done, _: Instant, _: &mut Tracer) -> Result<u64, String> {
            Ok(1)
        }
    }

    #[test]
    fn a_stall_charges_the_requests_due_behind_it() {
        let (tx, rx) = channel();
        let mut target = Stalling {
            tx,
            stall_at: 3,
            stall: Duration::from_millis(60),
        };
        // One request every 5 ms: requests 4..=14 fall due during the stall.
        let schedule: Vec<Duration> = (0..20).map(|i| Duration::from_millis(5 * i)).collect();
        let stats = open_loop(&mut target, &rx, &schedule, 0, &mut Tracer::new(false)).unwrap();
        assert_eq!(stats.latency_ms.len(), 20);
        // Settled in admission order here, so index = request id.
        let lat = &stats.latency_ms;
        assert!(lat[2] < 5.0, "before the stall: {}", lat[2]);
        assert!(lat[3] >= 55.0, "the stalled request itself: {}", lat[3]);
        // Request 4 was due 5 ms into the stall and waited out the rest.
        assert!(lat[4] >= 50.0, "due during the stall: {}", lat[4]);
        assert!(lat[10] >= 20.0, "due during the stall: {}", lat[10]);
        assert!(lat[19] < lat[4], "the backlog drains");
        assert!(stats.gen_lag_ms[4] >= 50.0);
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_counts_work() {
        let (tx, rx) = channel();
        let mut target = Stalling {
            tx,
            stall_at: u64::MAX,
            stall: Duration::ZERO,
        };
        let (stats, next) = closed_loop(
            &mut target,
            &rx,
            4,
            Duration::from_millis(20),
            100,
            &mut Tracer::new(false),
        )
        .unwrap();
        assert!(next > 104);
        assert_eq!(stats.latency_ms.len() as u64, next - 100);
        assert!(!stats.finished.is_empty());
        assert!(stats
            .finished
            .iter()
            .all(|&(at, work)| work == 1 && at <= Duration::from_millis(20)));
    }
}
