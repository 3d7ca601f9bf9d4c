//! Quickstart: the three layers of the Amplify reproduction in one file.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use amplify::{Amplifier, AmplifyOptions};
use pools::{PoolConfig, ShadowBuf, ShardedPool, StructurePool};
use smp_sim::run::{run_tree, ModelKind, TreeExperiment};
use workloads::tree::{PoolTree, TreeParams};

fn main() {
    // 1. The pool runtime: object pools and whole-structure reuse. One
    //    shard and no magazines is the single locked free list.
    let pool: ShardedPool<Vec<u8>> = ShardedPool::with_magazines(1, PoolConfig::default(), 0);
    let buf = pool.acquire(|| vec![0u8; 256]);
    pool.release(buf);
    let _again = pool.acquire(|| vec![0u8; 256]); // reuses the allocation
    println!(
        "object pool: {} hit(s), {} fresh alloc(s)",
        pool.stats().pool_hits(),
        pool.stats().fresh_allocs()
    );

    let trees: StructurePool<PoolTree> = StructurePool::new();
    let t = trees.alloc(&TreeParams { depth: 3, seed: 7 });
    let root_addr = t.root().addr();
    trees.free(t);
    let t2 = trees.alloc(&TreeParams { depth: 3, seed: 8 });
    println!(
        "structure pool: 15-node tree revived in one operation, root address unchanged: {}",
        t2.root().addr() == root_addr
    );

    let mut shadow = ShadowBuf::new();
    let b = shadow.acquire(800);
    shadow.release(b);
    let _b2 = shadow.acquire(750); // within the half-size window → reuse
    println!("shadowed array: {} hit(s), {} miss(es)", shadow.hits(), shadow.misses());

    // 2. The pre-processor: rewrite C++ to use the pools automatically.
    let cpp = r#"
class Engine { public: Engine(int p) { power = p; } int power; };
class Car {
public:
    Car() { engine = 0; }
    ~Car() { delete engine; }
    void rebuild(int p) { delete engine; engine = new Engine(p); }
private:
    Engine* engine;
};
"#;
    let amp = Amplifier::new(AmplifyOptions::default());
    let out = amp.amplify_source("car.cpp", cpp);
    println!("\npre-processor: {}", out.report.summary());
    for line in out.text.lines().filter(|l| l.contains("Shadow") || l.contains("amplify::")) {
        println!("    {}", line.trim());
    }

    // 3. The simulated SMP: why this wins on a multiprocessor.
    let exp = TreeExperiment {
        depth: 3,
        total_trees: 2_000,
        cpus: 8,
        params: smp_sim::CostParams::default(),
    };
    let serial = run_tree(ModelKind::Serial, 8, &exp);
    let amplified = run_tree(ModelKind::Amplify, 8, &exp);
    println!(
        "\nsimulated 8-CPU SMP, 8 threads: serial malloc {:.2} ms vs amplify {:.2} ms ({:.1}x)",
        serial.wall_ns as f64 / 1e6,
        amplified.wall_ns as f64 / 1e6,
        serial.wall_ns as f64 / amplified.wall_ns as f64
    );
}
