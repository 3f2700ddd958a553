//! Order statistics over measured populations, and the availability
//! measure of the crash workload.

/// The `q`-quantile (nearest rank, `q` in `[0, 1]`) of `samples`, or 0
/// for an empty population. Sorts `samples` in place.
pub fn quantile<T: Copy + Default + PartialOrd>(samples: &mut [T], q: f64) -> T {
    if samples.is_empty() {
        return T::default();
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[rank(samples.len(), q)]
}

/// Zero-based nearest-rank index of the `q`-quantile in `n` sorted
/// samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The `q`-quantile of request latencies in which a failed or refused
/// request (`None`) counts as slower than every answered one: it misses
/// every latency limit. A quantile that lands on a failure reads
/// `miss_ms`, the client deadline — the failed request waited at least
/// that long.
pub fn latency_quantile(samples: &[Option<f64>], q: f64, miss_ms: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut answered: Vec<f64> = samples.iter().flatten().copied().collect();
    let idx = rank(samples.len(), q);
    if idx >= answered.len() {
        return miss_ms;
    }
    answered.sort_unstable_by(f64::total_cmp);
    answered[idx]
}

/// Median of a few per-repeat figures.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    quantile(&mut v, 0.5)
}

/// One request on the watched keys: when it was due and when, if ever,
/// its acknowledgement arrived (microseconds on the run's clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watched {
    /// Due time.
    pub due_us: u64,
    /// Acknowledgement time; `None` if it never came.
    pub ack_us: Option<u64>,
}

/// The longest stretch during which some watched request was due and
/// unanswered while no watched acknowledgement arrived, in microseconds,
/// over the window `[start_us, end_us]`.
///
/// Quiet stretches of the arrival process itself do not count: a stall
/// starts at the previous acknowledgement or at the due time of the
/// oldest request still outstanding, whichever is later. Requests never
/// acknowledged stall until `end_us`.
pub fn longest_stall_us(requests: &[Watched], start_us: u64, end_us: u64) -> u64 {
    let mut by_ack: Vec<Watched> = requests.to_vec();
    by_ack.sort_unstable_by_key(|w| (w.ack_us.unwrap_or(u64::MAX), w.due_us));
    // suffix_due[k]: earliest due time among requests acknowledged no
    // earlier than by_ack[k] — those still outstanding just before it.
    let mut suffix_due = vec![u64::MAX; by_ack.len() + 1];
    for k in (0..by_ack.len()).rev() {
        suffix_due[k] = suffix_due[k + 1].min(by_ack[k].due_us);
    }
    let mut longest = 0;
    let mut prev = start_us;
    for (k, w) in by_ack.iter().enumerate() {
        let at = w.ack_us.unwrap_or(u64::MAX).min(end_us);
        let from = prev.max(suffix_due[k]);
        longest = longest.max(at.saturating_sub(from));
        if w.ack_us.is_none() {
            break;
        }
        prev = prev.max(at);
    }
    longest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile::<f64>(&mut [], 0.5), 0.0);
    }

    #[test]
    fn failures_count_as_misses() {
        // 98 answered at 1..=98 ms, 2 failed: the 99th percentile lands
        // on a failure and must read as a miss, never as a fast answer.
        let mut samples: Vec<Option<f64>> = (1..=98).map(|i| Some(f64::from(i))).collect();
        samples.extend([None, None]);
        assert_eq!(latency_quantile(&samples, 0.99, 10_000.0), 10_000.0);
        assert_eq!(latency_quantile(&samples, 0.5, 10_000.0), 50.0);
        // Dropping the failures instead would have reported 98 ms.
        let answered: Vec<Option<f64>> = samples.iter().copied().filter(Option::is_some).collect();
        assert_eq!(latency_quantile(&answered, 0.99, 10_000.0), 98.0);
        // A refused majority pushes even the median to a miss.
        let refused = [Some(1.0), None, None];
        assert_eq!(latency_quantile(&refused, 0.5, 7.0), 7.0);
    }

    fn w(due_us: u64, ack_us: Option<u64>) -> Watched {
        Watched { due_us, ack_us }
    }

    #[test]
    fn stall_is_the_longest_unanswered_stretch() {
        // Steady acks every 10 µs, then an outage: requests due at 40
        // and 45 are answered only at 300. The stall runs from the last
        // ack before the outage (40) to 300.
        let reqs = [
            w(0, Some(10)),
            w(10, Some(20)),
            w(20, Some(30)),
            w(30, Some(40)),
            w(40, Some(300)),
            w(45, Some(300)),
            w(300, Some(310)),
        ];
        assert_eq!(longest_stall_us(&reqs, 0, 400), 260);
        // Input order does not matter.
        let mut rev = reqs;
        rev.reverse();
        assert_eq!(longest_stall_us(&rev, 0, 400), 260);
    }

    #[test]
    fn quiet_arrivals_are_not_a_stall() {
        // Nothing due between 20 and 500: the gap between acks at 21
        // and 505 is an idle client, and only the 5 µs the request due
        // at 500 waited counts.
        let reqs = [w(0, Some(3)), w(20, Some(21)), w(500, Some(505))];
        assert_eq!(longest_stall_us(&reqs, 0, 600), 5);
    }

    #[test]
    fn unanswered_requests_stall_to_the_end() {
        let reqs = [w(0, Some(5)), w(10, None), w(20, Some(30))];
        // The request due at 10 is never answered: the stall runs from
        // the ack at 30 (the later of it and the due time) to the end.
        assert_eq!(longest_stall_us(&reqs, 0, 100), 70);
        // Before the ack at 30 the stall already ran from 10 to 30.
        assert_eq!(longest_stall_us(&reqs, 0, 35), 20);
    }

    #[test]
    fn stall_starts_no_earlier_than_the_window() {
        let reqs = [w(0, Some(50))];
        assert_eq!(longest_stall_us(&reqs, 20, 100), 30);
        assert_eq!(longest_stall_us(&[], 0, 100), 0);
    }
}
