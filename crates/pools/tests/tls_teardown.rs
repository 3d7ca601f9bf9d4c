//! Pool traffic from a thread-local destructor that runs after the
//! thread's magazine table is torn down.
//!
//! A thread-local registered before the thread's first pool operation is
//! destroyed after the table's teardown guard (destructors run in reverse
//! registration order). Its frees and allocs must then go straight to the
//! depot, as one-object nodes. A failure here is a process abort ("thread
//! local panicked on drop"), not a test failure, so the test runs in a
//! child process of its own ([`in_own_process`]) and the parent reports
//! the child's exit status.

use pools::structure_pool::Reusable;
use pools::{PoolBox, StructurePool};
use std::cell::RefCell;
use std::sync::Arc;

/// Set in the child process that runs one test alone.
const CHILD_ENV: &str = "TLS_TEARDOWN_CHILD";

/// Run test `name` alone in a child process of this binary. Returns true
/// in the child, where the caller runs its body; in the parent it asserts
/// the child ran the test and passed, and returns false.
fn in_own_process(name: &str) -> bool {
    if std::env::var_os(CHILD_ENV).is_some() {
        return true;
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", name, "--test-threads=1", "--quiet"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("spawn the child test process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{name} failed in its own process ({}):\n{stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// A structure with a heap child, so reuse keeps a link intact.
struct Blob(Vec<u64>);

impl Reusable for Blob {
    type Params = usize;
    fn fresh(n: &usize) -> Self {
        Blob(vec![7; *n])
    }
    fn reinit(&mut self, n: &usize) {
        self.0.clear();
        self.0.resize(*n, 7);
    }
}

const BYTES: u64 = 64;

/// Holds one structure until thread exit, then frees it and runs one more
/// alloc/free pair from its destructor.
struct Holder {
    pool: Arc<StructurePool<Blob>>,
    held: Option<PoolBox<Blob>>,
}

impl Drop for Holder {
    fn drop(&mut self) {
        if let Some(b) = self.held.take() {
            self.pool.free_sized(b, BYTES);
        }
        let again = self.pool.alloc_sized(&8, BYTES);
        assert_eq!(again.0, vec![7; 8], "a reused structure is re-initialized");
        self.pool.free_sized(again, BYTES);
    }
}

thread_local! {
    static HOLDER: RefCell<Option<Holder>> = const { RefCell::new(None) };
}

#[test]
fn thread_local_destructor_frees_into_a_sharded_pool_after_teardown() {
    if !in_own_process("thread_local_destructor_frees_into_a_sharded_pool_after_teardown") {
        return;
    }
    let pool = Arc::new(StructurePool::<Blob>::new_sharded(2));
    let p = Arc::clone(&pool);
    std::thread::spawn(move || {
        // Registered before the thread's first pool operation.
        HOLDER.with(|h| *h.borrow_mut() = Some(Holder { pool: Arc::clone(&p), held: None }));
        // Enough traffic to fill the magazine and park on the depot.
        let mut live: Vec<_> = (0..40).map(|_| p.alloc_sized(&8, BYTES)).collect();
        let held = live.pop();
        live.into_iter().for_each(|b| p.free_sized(b, BYTES));
        HOLDER.with(|h| h.borrow_mut().as_mut().expect("installed").held = held);
    })
    .join()
    .expect("the worker joins: its teardown neither panics nor aborts");
    // The ledger balances: 41 allocs and 41 frees, nothing live, every
    // alloc a hit or a fresh build, and every structure built is parked.
    let s = pool.stats();
    assert_eq!(s.total_allocs(), 41);
    assert_eq!(s.frees(), 41);
    assert_eq!(s.live_bytes(), 0);
    assert_eq!(s.pool_hits() + s.fresh_allocs(), s.total_allocs());
    assert_eq!(pool.len() as u64, s.fresh_allocs(), "no structure lost or duplicated");
}
