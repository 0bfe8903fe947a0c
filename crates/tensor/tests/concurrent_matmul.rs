//! `Tensor::matmul` under concurrent callers (ROADMAP item 1).
//!
//! The encode pool runs several workers, each issuing level matmuls.
//! The shape here sits above the row/MAC gate of the removed row-split
//! worker set, whose single global job slot let a second caller
//! overwrite the first's job: rows stayed zero, or the callers
//! deadlocked. Every product must equal a direct kernel call bit for
//! bit, and the whole run must finish — a watchdog turns a hang into a
//! failure.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use ccsa_tensor::{kernels, Tensor};

const THREADS: usize = 4;
const ITERS: usize = 200;
const M: usize = 130;
const K: usize = 48;
const N: usize = 200;
const WATCHDOG: Duration = Duration::from_secs(30);

/// Deterministic, thread-distinct operand values in (-1, 1).
fn operand(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (((i * 31 + salt * 17) % 97) as f32 - 48.0) / 49.0)
        .collect()
}

#[test]
fn concurrent_matmuls_match_the_direct_kernel_bitwise() {
    let start = Arc::new(Barrier::new(THREADS));
    let (done_tx, done_rx) = mpsc::channel();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let start = Arc::clone(&start);
            let done_tx = done_tx.clone();
            thread::spawn(move || {
                let a = operand(M * K, 2 * t);
                let b = operand(K * N, 2 * t + 1);
                let mut want = vec![0.0f32; M * N];
                (kernels::active().matmul)(&a, &b, &mut want, M, K, N);
                let (a, b) = (Tensor::from_vec(a, [M, K]), Tensor::from_vec(b, [K, N]));
                // All callers enter their first product together.
                start.wait();
                for iter in 0..ITERS {
                    let got = a.matmul(&b);
                    let same = got
                        .as_slice()
                        .iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits());
                    assert!(same, "thread {t} iteration {iter}: product differs");
                }
                // The receiver outlives every worker unless the watchdog fired.
                let _ = done_tx.send(());
            })
        })
        .collect();
    drop(done_tx);

    let deadline = Instant::now() + WATCHDOG;
    for _ in 0..THREADS {
        match done_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(()) => {}
            Err(RecvTimeoutError::Timeout) => {
                panic!("concurrent matmul callers still running after {WATCHDOG:?}")
            }
            // A worker panicked and dropped its sender; join reports it.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for w in workers {
        w.join().expect("matmul worker panicked");
    }
}
