//! The pool spawns one worker per core beyond the caller's, once: no
//! number of parallel calls, concurrent callers or shares (even shares
//! above the core count) grows it. Its own test binary, because the
//! `run_pooled` hook other suites use may grow the pool on purpose.

use rayon::prelude::*;

#[test]
fn the_pool_spawns_one_worker_per_extra_core_once() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(rayon::current_num_threads(), cores);
    assert_eq!(rayon::rank_share(1), cores);
    assert_eq!(rayon::rank_share(cores + 1), 1);
    let bump = |v: &mut Vec<u32>| {
        v.par_chunks_mut(256)
            .for_each(|c| c.iter_mut().for_each(|x| *x += 1))
    };
    let mut v = vec![0u32; 1 << 16];
    for _ in 0..10 {
        bump(&mut v);
    }
    std::thread::scope(|s| {
        for share in [1usize, 2, 3, cores + 4] {
            s.spawn(move || {
                let mut w = vec![0u32; 1 << 16];
                rayon::with_share(share, || bump(&mut w));
                assert!(w.iter().all(|&x| x == 1));
            });
        }
    });
    assert!(v.iter().all(|&x| x == 10));
    assert_eq!(rayon::internals::workers(), cores - 1);
}
