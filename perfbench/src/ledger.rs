//! The per-layer ledger: every crate's public functions, timed from this
//! process on inputs generated from the seed.
//!
//! The ledger is the same list whatever workload the traced run is for, so
//! that a layer's number means one thing; the inputs are small, fixed
//! shapes of its own. Counts (unit `count` or `ratio`) are functions of
//! the inputs alone and repeat exactly for one seed; everything else is
//! host time on one thread unless the name says otherwise.

use crate::child::{run_to_exit, Env};
use crate::cluster::{run_cluster, ClusterRun, RankMetric, LOSS15};
use crate::gen::{self, SplitMix64};
use crate::stats::{median, sorted};
use crate::trace::Tracer;
use crate::workloads::db::{engine_config, protein_scoring, walk_jobs, write_records, TOP_K};
use crate::workloads::timed;
use genomedsm::batch::{
    build_index, prefiltered_search, run_jobs, BatchEngine, Hit, SchedulerConfig, ScoreMode,
    SeqDatabase, TopK,
};
use genomedsm::cluster::WorkloadSpec;
use genomedsm::core::nw::align_global;
use genomedsm::core::{
    heuristic_align, sw_score_linear, sw_score_profile, HeuristicParams, Scoring,
};
use genomedsm::dsm::codec::{decode_msg, decode_reply, encode_msg, encode_reply};
use genomedsm::dsm::msg::{Msg, Notice, Patch, Reply};
use genomedsm::dsm::page::{apply_patches, diff_bytes};
use genomedsm::dsm::{DsmConfig, DsmSystem, NetworkModel, NodeStats};
use genomedsm::index::QueryBound;
use genomedsm::kernels::{
    effective_lanes, kernel_for, score_batch_packed, score_batch_packed_affine, BandScorer, Isa,
    KernelChoice, PackedAffineProfile, PackedProfile,
};
use genomedsm::seq::fasta::{read_fasta, read_protein_fasta, write_fasta, write_protein_fasta};
use genomedsm::seq::{planted_pair, random_dna, random_protein, HomologyPlan};
use genomedsm::serve::{
    from_hex_line, to_hex_line, AdmissionQueue, QueryKey, Request, Response, ResultCache,
    ServeClient, Server, ServerConfig,
};
use genomedsm::strategies::{
    heuristic_align_dsm, heuristic_block_align, phase2_scattered_with, preprocess_align,
    BandScheme, BlockedConfig, ChunkPlan, HeuristicDsmConfig, PreprocessConfig,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}
use Better::{Higher, Lower};

/// Every per-layer metric, in the order reported: name, unit, direction.
/// `BENCHMARK.json` lists the same (a test keeps the two equal).
pub const METRICS: &[(&str, &str, Better)] = &[
    // The traced workload itself.
    ("trace.op_wall_ms", "ms", Lower),
    ("trace.op_tail_ms", "ms", Lower),
    ("trace.overhead_ratio", "ratio", Lower),
    ("trace.spans", "count", Lower),
    ("budget.unattributed_share", "ratio", Lower),
    // seq
    ("seq.fasta.dna_parse_mbps", "MB/s", Higher),
    ("seq.fasta.protein_parse_mbps", "MB/s", Higher),
    // core
    ("core.sw_linear.gcups", "GCUPS", Higher),
    ("core.sw_affine.gcups", "GCUPS", Higher),
    ("core.hcell.mcups", "MCUPS", Higher),
    ("core.nw.mcups", "MCUPS", Higher),
    // kernels
    ("kernels.lanes", "count", Higher),
    ("kernels.striped.gcups_in_range", "GCUPS", Higher),
    ("kernels.striped.gcups_over_ceiling", "GCUPS", Higher),
    ("kernels.striped_affine.gcups", "GCUPS", Higher),
    ("kernels.band.gcups_in_range", "GCUPS", Higher),
    ("kernels.band.simd_over_ceiling", "count", Higher),
    ("kernels.packed.gcups", "GCUPS", Higher),
    ("kernels.packed.profile_build_us", "us", Lower),
    ("kernels.packed_affine.gcups", "GCUPS", Higher),
    ("kernels.packed_affine.profile_build_us", "us", Lower),
    // index
    ("index.build_us_per_record", "us", Lower),
    ("index.bound_ns", "ns", Lower),
    ("index.pruned_ratio", "ratio", Higher),
    // batch
    ("batch.db.load_mbps", "MB/s", Higher),
    ("batch.scheduler.job_overhead_us", "us", Lower),
    ("batch.topk.push_ns", "ns", Lower),
    ("batch.planner.plan_us.dna", "us", Lower),
    ("batch.planner.padding_ratio.dna", "ratio", Lower),
    ("batch.planner.lane_occupancy.dna", "ratio", Higher),
    ("batch.planner.spill_ratio.dna", "ratio", Lower),
    ("batch.scheduler.jobs.dna", "count", Lower),
    ("batch.engine.gcups_w1.dna", "GCUPS", Higher),
    ("batch.engine.gcups_wN.dna", "GCUPS", Higher),
    ("batch.engine.kernel_share.dna", "ratio", Higher),
    ("batch.engine.scaling_eff.dna", "ratio", Higher),
    ("batch.cli.overhead_s.dna", "s", Lower),
    ("batch.planner.plan_us.protein", "us", Lower),
    ("batch.planner.padding_ratio.protein", "ratio", Lower),
    ("batch.planner.lane_occupancy.protein", "ratio", Higher),
    ("batch.planner.spill_ratio.protein", "ratio", Lower),
    ("batch.scheduler.jobs.protein", "count", Lower),
    ("batch.engine.gcups_w1.protein", "GCUPS", Higher),
    ("batch.engine.gcups_wN.protein", "GCUPS", Higher),
    ("batch.engine.kernel_share.protein", "ratio", Higher),
    ("batch.engine.scaling_eff.protein", "ratio", Higher),
    ("batch.cli.overhead_s.protein", "s", Lower),
    // dsm
    ("dsm.codec.encode_ns", "ns", Lower),
    ("dsm.codec.decode_ns", "ns", Lower),
    ("dsm.codec.bytes_per_msg", "count", Lower),
    ("dsm.page.diff_us", "us", Lower),
    ("dsm.page.apply_us", "us", Lower),
    ("dsm.channel.lock_rt_us", "us", Lower),
    ("dsm.channel.cv_rt_us", "us", Lower),
    ("dsm.channel.barrier_us", "us", Lower),
    ("dsm.channel.page_fetch_us", "us", Lower),
    ("dsm.udp.loss15.wall_s", "s", Lower),
    ("dsm.udp.loss15.datagrams", "count", Lower),
    ("dsm.udp.loss15.retransmits", "count", Lower),
    ("dsm.udp.loss15.retransmit_ratio", "ratio", Lower),
    ("dsm.udp.loss15.dups_dropped", "count", Lower),
    ("dsm.udp.loss15.ms_per_retransmit", "ms", Lower),
    ("dsm.udp.turnover_s", "s", Lower),
    ("dsm.udp.clean.best_s", "s", Lower),
    ("dsm.udp.clean.worst_s", "s", Lower),
    ("dsm.udp.clean.stalled_runs", "count", Lower),
    ("dsm.udp.clean.datagrams.heuristic", "count", Lower),
    ("dsm.udp.clean.datagrams.blocked", "count", Lower),
    ("dsm.udp.clean.datagrams.preprocess", "count", Lower),
    ("dsm.udp.clean.datagrams.phase2", "count", Lower),
    // strategies
    ("strategies.heuristic.wall_s", "s", Lower),
    ("strategies.heuristic.msgs_sent", "count", Lower),
    ("strategies.heuristic.bytes_sent", "count", Lower),
    ("strategies.heuristic.page_fetches", "count", Lower),
    ("strategies.blocked.wall_s", "s", Lower),
    ("strategies.blocked.msgs_sent", "count", Lower),
    ("strategies.blocked.bytes_sent", "count", Lower),
    ("strategies.blocked.page_fetches", "count", Lower),
    ("strategies.blocked.mcups", "MCUPS", Higher),
    ("strategies.blocked.vs_serial", "ratio", Lower),
    ("strategies.preprocess.wall_s", "s", Lower),
    ("strategies.preprocess.msgs_sent", "count", Lower),
    ("strategies.preprocess.bytes_sent", "count", Lower),
    ("strategies.preprocess.page_fetches", "count", Lower),
    ("strategies.preprocess.gcups", "GCUPS", Higher),
    ("strategies.phase2.wall_s", "s", Lower),
    ("strategies.phase2.msgs_sent", "count", Lower),
    ("strategies.phase2.bytes_sent", "count", Lower),
    ("strategies.phase2.page_fetches", "count", Lower),
    // serve
    ("serve.startup_ms", "ms", Lower),
    ("serve.proto.request_encode_ns", "ns", Lower),
    ("serve.proto.request_decode_ns", "ns", Lower),
    ("serve.proto.response_encode_ns", "ns", Lower),
    ("serve.proto.response_decode_ns", "ns", Lower),
    ("serve.proto.hex_ns_per_kb", "ns", Lower),
    ("serve.proto.bytes_per_request", "count", Lower),
    ("serve.admission.submit_next_ns", "ns", Lower),
    ("serve.cache.get_ns", "ns", Lower),
    ("serve.cache.insert_ns", "ns", Lower),
    ("serve.cache.hit_ratio", "ratio", Higher),
    ("serve.single.engine_ms", "ms", Lower),
    ("serve.single.overhead_ms", "ms", Lower),
    ("serve.single.lane_occupancy", "ratio", Higher),
    ("serve.warm.p50_us", "us", Lower),
    ("serve.warm.p99_us", "us", Lower),
    ("serve.batched.qps", "1/s", Higher),
    ("serve.queue.high_water", "count", Lower),
    ("serve.rejected", "count", Lower),
];

const PAPER: Scoring = Scoring::paper();

/// Values collected so far, and the means to time a call.
pub struct Ledger<'a> {
    env: &'a Env,
    tracer: &'a mut Tracer,
    seed: u64,
    /// How long a repeated probe repeats (three calls at least).
    slice: Duration,
    values: Vec<(&'static str, f64)>,
}

impl<'a> Ledger<'a> {
    pub fn new(env: &'a Env, tracer: &'a mut Tracer, seed: u64, seconds: f64) -> Self {
        Self {
            env,
            tracer,
            seed,
            slice: Duration::from_secs_f64(seconds * 0.004),
            values: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            METRICS.iter().any(|m| m.0 == name),
            "{name} is not declared"
        );
        self.values.push((name, value));
    }

    pub fn values(&self) -> &[(&'static str, f64)] {
        &self.values
    }

    /// Median seconds per call of `f`, repeated for the time slice inside
    /// one span.
    fn time(&mut self, span: &str, mut f: impl FnMut()) -> f64 {
        let slice = self.slice;
        self.tracer.span(span, 0, |_| {
            let mut walls = Vec::new();
            let t0 = Instant::now();
            while walls.len() < 3 || t0.elapsed() < slice {
                let start = Instant::now();
                f();
                walls.push(start.elapsed().as_secs_f64());
            }
            median(&walls)
        })
    }

    /// Seconds of one call of `f`.
    fn once<R>(&mut self, span: &str, f: impl FnOnce() -> R) -> (R, f64) {
        timed(self.tracer, span, f)
    }

    fn sub_seed(&self, tag: u64) -> u64 {
        gen::sub_seed(self.seed, 0x1ed9e4 + tag)
    }

    pub fn run(&mut self) -> Result<(), String> {
        self.seq()?;
        self.core();
        self.kernels();
        self.index();
        self.batch(false)?;
        self.batch(true)?;
        self.batch_common();
        self.dsm_codec_and_pages();
        self.dsm_channel();
        self.dsm_udp()?;
        self.strategies()?;
        self.serve_parts();
        self.serve_service()
    }

    fn pair(&self, len: usize, tag: u64) -> (Vec<u8>, Vec<u8>) {
        let (s, t, _) = planted_pair(
            len,
            len,
            &HomologyPlan::paper_density(len),
            self.sub_seed(tag),
        );
        (s.into_bytes(), t.into_bytes())
    }

    fn seq(&mut self) -> Result<(), String> {
        let mut rng = SplitMix64::new(self.sub_seed(1));
        let dna = gen::dna_records(
            "r",
            &gen::ragged_lengths(200, 1000, 500, &mut rng),
            self.sub_seed(2),
        );
        let mut text = Vec::new();
        write_fasta(&mut text, &dna, 70).map_err(|e| e.to_string())?;
        let s = self.time("seq.fasta.read_dna", || {
            black_box(read_fasta(text.as_slice()).expect("own FASTA"));
        });
        self.put("seq.fasta.dna_parse_mbps", text.len() as f64 / s / 1e6);

        let protein = gen::protein_records(
            "p",
            &gen::ragged_lengths(400, 350, 250, &mut rng),
            self.sub_seed(3),
        );
        let mut text = Vec::new();
        write_protein_fasta(&mut text, &protein, 70).map_err(|e| e.to_string())?;
        let s = self.time("seq.fasta.read_protein", || {
            black_box(read_protein_fasta(text.as_slice()).expect("own FASTA"));
        });
        self.put("seq.fasta.protein_parse_mbps", text.len() as f64 / s / 1e6);
        Ok(())
    }

    /// The scalar oracles and the serial heuristic: the plain one-thread
    /// baseline every other number is read against.
    fn core(&mut self) {
        let (s, t) = self.pair(1500, 10);
        let secs = self.time("core.sw_score_linear", || {
            black_box(sw_score_linear(&s, &t, &PAPER, i32::MAX));
        });
        self.put(
            "core.sw_linear.gcups",
            (s.len() * t.len()) as f64 / secs / 1e9,
        );

        let ms = protein_scoring();
        let q = random_protein(400, self.sub_seed(11)).into_bytes();
        let r = random_protein(2000, self.sub_seed(12)).into_bytes();
        let secs = self.time("core.sw_score_profile", || {
            black_box(sw_score_profile(&q, &r, &ms, 0));
        });
        self.put(
            "core.sw_affine.gcups",
            (q.len() * r.len()) as f64 / secs / 1e9,
        );

        let (s, t) = self.pair(1200, 13);
        let params = HeuristicParams::default_for_dna();
        let secs = self.time("core.heuristic_align", || {
            black_box(heuristic_align(&s, &t, &PAPER, &params));
        });
        self.put("core.hcell.mcups", (s.len() * t.len()) as f64 / secs / 1e6);

        let (s, t) = self.pair(400, 14);
        let secs = self.time("core.nw.align_global", || {
            black_box(align_global(&s, &t, &PAPER));
        });
        self.put("core.nw.mcups", (s.len() * t.len()) as f64 / secs / 1e6);
    }

    fn kernels(&mut self) {
        let auto = kernel_for(KernelChoice::Auto);
        self.put("kernels.lanes", effective_lanes(KernelChoice::Auto) as f64);

        let (s, t) = self.pair(10_000, 20);
        let secs = self.time("kernels.striped.score", || {
            black_box(auto.score(&s, &t, &PAPER, i32::MAX));
        });
        self.put(
            "kernels.striped.gcups_in_range",
            (s.len() * t.len()) as f64 / secs / 1e9,
        );

        // Past the i16 ceiling `min(m, n) * match <= 32 000`. Under the
        // paper's match = 1 that takes a 32 001-bp pair and seven seconds;
        // match = 5 crosses it at 6 401 bp and takes the same branch.
        let blast_like = Scoring::new(5, -4, -8);
        let (s6, t6) = self.pair(6_401, 21);
        let (_, secs) = self.once("kernels.striped.score_over_ceiling", || {
            black_box(auto.score(&s6, &t6, &blast_like, i32::MAX))
        });
        self.put(
            "kernels.striped.gcups_over_ceiling",
            (s6.len() * t6.len()) as f64 / secs / 1e9,
        );

        let ms = protein_scoring();
        let q = random_protein(1000, self.sub_seed(22)).into_bytes();
        let r = random_protein(5000, self.sub_seed(23)).into_bytes();
        let secs = self.time("kernels.striped.score_affine", || {
            black_box(auto.score_affine(&q, &r, &ms, 0));
        });
        self.put(
            "kernels.striped_affine.gcups",
            (q.len() * r.len()) as f64 / secs / 1e9,
        );

        // One 1 024-row band of the exact strategy, fed 1 024 columns at a
        // time, the way `strategies::preprocess` drives it.
        let band = &s[..1024];
        let secs = self.time("kernels.band.advance", || {
            let Some(mut scorer) = BandScorer::new(
                KernelChoice::Auto,
                band,
                (s.len(), t.len()),
                &PAPER,
                50,
                None,
            ) else {
                return;
            };
            let (mut bottom, mut hits, mut saved) = (Vec::new(), Vec::new(), Vec::new());
            for (c, chunk) in t.chunks(1024).enumerate() {
                let top = vec![0i32; chunk.len() + 1];
                scorer.advance(
                    chunk,
                    &top,
                    c * 1024 + 1,
                    &mut bottom,
                    &mut hits,
                    &mut saved,
                );
            }
            black_box(scorer.best_score());
        });
        self.put(
            "kernels.band.gcups_in_range",
            (band.len() * t.len()) as f64 / secs / 1e9,
        );
        let over = BandScorer::new(KernelChoice::Auto, band, (33_000, 33_000), &PAPER, 50, None);
        self.put(
            "kernels.band.simd_over_ceiling",
            f64::from(u8::from(over.is_some())),
        );

        // Full lanes: as many queries as the vector is wide.
        let isa = Isa::best_available();
        let mut rng = SplitMix64::new(self.sub_seed(24));
        let queries = gen::dna_records(
            "q",
            &gen::ragged_lengths(isa.lanes(), 150, 100, &mut rng),
            self.sub_seed(25),
        );
        let records = gen::dna_records(
            "r",
            &gen::ragged_lengths(100, 1000, 500, &mut rng),
            self.sub_seed(26),
        );
        let qs: Vec<&[u8]> = queries.iter().map(|q| q.seq.as_bytes()).collect();
        let secs = self.time("kernels.packed.profile_build", || {
            black_box(PackedProfile::new(&qs, &PAPER, isa));
        });
        self.put("kernels.packed.profile_build_us", secs * 1e6);
        if let Some(mut prof) = PackedProfile::new(&qs, &PAPER, isa) {
            let secs = self.time("kernels.packed.score", || {
                for r in &records {
                    black_box(score_batch_packed(&mut prof, r.seq.as_bytes(), 0));
                }
            });
            let cells = qs.iter().map(|q| q.len()).sum::<usize>() * 100 * 1000;
            self.put("kernels.packed.gcups", cells as f64 / secs / 1e9);
        } else {
            self.put("kernels.packed.gcups", 0.0);
        }

        let queries = gen::protein_records(
            "q",
            &gen::ragged_lengths(isa.lanes(), 300, 150, &mut rng),
            self.sub_seed(27),
        );
        let records = gen::protein_records(
            "r",
            &gen::ragged_lengths(100, 350, 250, &mut rng),
            self.sub_seed(28),
        );
        let qs: Vec<&[u8]> = queries.iter().map(|q| q.seq.as_bytes()).collect();
        let secs = self.time("kernels.packed_affine.profile_build", || {
            black_box(PackedAffineProfile::new(&qs, &ms, isa));
        });
        self.put("kernels.packed_affine.profile_build_us", secs * 1e6);
        if let Some(mut prof) = PackedAffineProfile::new(&qs, &ms, isa) {
            let secs = self.time("kernels.packed_affine.score", || {
                for r in &records {
                    black_box(score_batch_packed_affine(&mut prof, r.seq.as_bytes(), 0));
                }
            });
            let cells = qs.iter().map(|q| q.len()).sum::<usize>() * 100 * 350;
            self.put("kernels.packed_affine.gcups", cells as f64 / secs / 1e9);
        } else {
            self.put("kernels.packed_affine.gcups", 0.0);
        }
    }

    /// On no end-to-end path today (`--prefilter` is off by default);
    /// recorded so that a default-on prefilter can be judged later. The set
    /// has planted homologs: each query is a mutated stretch of a record.
    fn index(&mut self) {
        let ms = protein_scoring();
        let mut rng = SplitMix64::new(self.sub_seed(30));
        let records = gen::protein_records(
            "r",
            &gen::ragged_lengths(200, 350, 250, &mut rng),
            self.sub_seed(31),
        );
        let queries: Vec<Vec<u8>> = (0..8)
            .map(|i| {
                let source = records[i * 17].seq.as_bytes();
                let len = source.len().min(120);
                let noise = random_protein(len, self.sub_seed(32 + i as u64)).into_bytes();
                // Every tenth residue replaced: ~90 % identity.
                (0..len)
                    .map(|k| if k % 10 == 9 { noise[k] } else { source[k] })
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let db = SeqDatabase::from_protein_records(records);

        let secs = self.time("index.build", || {
            black_box(build_index(&db));
        });
        self.put("index.build_us_per_record", secs * 1e6 / db.len() as f64);
        let index = build_index(&db);
        let qb = QueryBound::new(refs[0], &ms);
        let secs = self.time("index.bound", || {
            for p in index.profiles() {
                black_box(qb.bound(p));
            }
        });
        self.put("index.bound_ns", secs * 1e9 / db.len() as f64);
        // Best hit only: the planted homolog sets a bar the bound can prune under.
        let ((_, stats), _) = self.once("batch.prefiltered_search", || {
            prefiltered_search(&db, &index, &refs, &ms, KernelChoice::Auto, 1)
        });
        self.put("index.pruned_ratio", stats.pruning_rate());
    }

    /// The engine on a small set of the `db_*` workloads' shape, and the CLI
    /// around it.
    fn batch(&mut self, protein: bool) -> Result<(), String> {
        macro_rules! name {
            ($stem:literal) => {
                if protein {
                    concat!($stem, ".protein")
                } else {
                    concat!($stem, ".dna")
                }
            };
        }
        let (tag, mode, q_shape, r_shape) = if protein {
            (
                40,
                ScoreMode::Protein(protein_scoring()),
                (32, 300, 150),
                (150, 350, 250),
            )
        } else {
            (50, ScoreMode::Dna, (32, 150, 100), (100, 1000, 500))
        };
        let mut rng = SplitMix64::new(self.sub_seed(tag));
        let records = gen::ragged_lengths(r_shape.0, r_shape.1, r_shape.2, &mut rng);
        let queries = gen::ragged_lengths(q_shape.0, q_shape.1, q_shape.2, &mut rng);
        let kind = if protein { "protein" } else { "dna" };
        let db_path = self.env.path(&format!("ledger-{kind}-db.fa"));
        let q_path = self.env.path(&format!("ledger-{kind}-q.fa"));
        write_records(protein, "r", &records, self.sub_seed(tag + 1), &db_path)?;
        write_records(protein, "q", &queries, self.sub_seed(tag + 2), &q_path)?;

        let (inputs, load_s) = self.once("batch.load_inputs", || {
            if protein {
                genomedsm::batch::load_protein_inputs(&db_path, &q_path)
            } else {
                genomedsm::batch::load_inputs(&db_path, &q_path)
            }
        });
        let inputs = inputs.map_err(|e| format!("ledger inputs: {e}"))?;
        if !protein {
            let bytes = std::fs::metadata(&db_path).map_or(0, |m| m.len())
                + std::fs::metadata(&q_path).map_or(0, |m| m.len());
            self.put("batch.db.load_mbps", bytes as f64 / load_s / 1e6);
        }
        let refs = inputs.query_refs();
        let cells = (q_shape.0 * q_shape.1 * r_shape.0 * r_shape.1) as f64;
        let w = self.env.workers;

        let walk = walk_jobs(&inputs.db, &refs, &mode, 1, self.tracer);
        let plan = walk.plan.as_ref().expect("walk planned");
        let packed: usize = plan.groups.iter().map(Vec::len).sum();
        let packed_rows: usize = plan.groups.iter().flatten().map(|&q| refs[q].len()).sum();
        let lanes = effective_lanes(KernelChoice::Auto);
        self.put(name!("batch.planner.plan_us"), walk.plan_s * 1e6);
        self.put(
            name!("batch.planner.padding_ratio"),
            plan.padding_rows as f64 / packed_rows.max(1) as f64,
        );
        self.put(
            name!("batch.planner.lane_occupancy"),
            packed as f64 / (plan.groups.len() * lanes).max(1) as f64,
        );
        self.put(
            name!("batch.planner.spill_ratio"),
            plan.scalar.len() as f64 / refs.len() as f64,
        );

        let one = BatchEngine::new(engine_config(mode, 1));
        let w1_s = self.time("batch.engine.search_w1", || {
            black_box(one.search(&inputs.db, &refs));
        });
        let many = BatchEngine::new(engine_config(mode, w));
        let wn_s = self.time("batch.engine.search_wN", || {
            black_box(many.search(&inputs.db, &refs));
        });
        let out_n = many.search(&inputs.db, &refs);
        if out_n.hits != one.search(&inputs.db, &refs).hits || out_n.hits != walk.hits {
            return Err(format!(
                "ledger {kind}: engine answers differ between worker counts"
            ));
        }
        self.put(name!("batch.scheduler.jobs"), out_n.stats.jobs as f64);
        self.put(name!("batch.engine.gcups_w1"), cells / w1_s / 1e9);
        self.put(name!("batch.engine.gcups_wN"), cells / wn_s / 1e9);
        self.put(name!("batch.engine.kernel_share"), walk.kernel_s / w1_s);
        self.put(name!("batch.engine.scaling_eff"), w1_s / (wn_s * w as f64));

        let mut cmd = self.env.genomedsm();
        cmd.arg("batch")
            .arg("--db")
            .arg(&db_path)
            .arg("--queries")
            .arg(&q_path)
            .args(["--top-k", &TOP_K.to_string()])
            .args(["--workers", &w.to_string()]);
        if protein {
            cmd.args(["--mode", "protein"]);
        }
        let (out, err) = (
            self.env.path("ledger-batch.out"),
            self.env.path("ledger-batch.err"),
        );
        let (exit, _) = self.once("cli.batch", || run_to_exit(cmd, &out, &err));
        let exit = exit?;
        if !exit.ok {
            return Err(format!("ledger {kind}: genomedsm batch failed"));
        }
        self.put(
            name!("batch.cli.overhead_s"),
            exit.wall.as_secs_f64() - wn_s,
        );
        Ok(())
    }

    fn batch_common(&mut self) {
        let config = SchedulerConfig {
            workers: self.env.workers,
            window: 0,
        };
        let jobs = 2_000;
        let secs = self.time("batch.scheduler.run_jobs_noop", || {
            run_jobs(
                vec![(); jobs],
                &config,
                |i, ()| i,
                |_, r| {
                    black_box(r);
                },
            );
        });
        self.put("batch.scheduler.job_overhead_us", secs * 1e6 / jobs as f64);

        let mut rng = SplitMix64::new(self.sub_seed(60));
        let hits: Vec<Hit> = (0..10_000)
            .map(|i| Hit {
                score: 1 + rng.below(200) as i32,
                target: i,
                end: (1, 1),
            })
            .collect();
        let secs = self.time("batch.topk.push", || {
            let mut tk = TopK::new(TOP_K);
            for &h in &hits {
                tk.push(h);
            }
            black_box(tk.len());
        });
        self.put("batch.topk.push_ns", secs * 1e9 / hits.len() as f64);
    }

    /// A fixed mix of what the strategies send: a page request and its
    /// 4 KiB reply, a lock acquire and its grant, a diff, a barrier arrival.
    fn dsm_codec_and_pages(&mut self) {
        let notices = |n: usize| -> Vec<Notice> {
            (0..n)
                .map(|i| Notice {
                    page: 7 + i as u64,
                    writer: 1,
                    home: 0,
                })
                .collect()
        };
        let msgs = [
            Msg::GetPage {
                page: 9,
                from: 1,
                epoch: 3,
            },
            Msg::Acquire {
                lock: 4,
                from: 1,
                last_seq: 17,
            },
            Msg::Diff {
                page: 9,
                from: 1,
                patches: (0..8)
                    .map(|i| Patch {
                        offset: i * 512,
                        data: vec![i as u8; 64],
                    })
                    .collect(),
                epoch: 3,
            },
            Msg::Barrier {
                from: 1,
                notices: notices(4),
            },
        ];
        let replies = [
            Reply::Page {
                page: 9,
                data: vec![0xA5; 4096],
            },
            Reply::LockGranted {
                notices: notices(2),
                seq: 18,
            },
        ];
        let count = (msgs.len() + replies.len()) as f64;
        let secs = self.time("dsm.codec.encode", || {
            for m in &msgs {
                black_box(encode_msg(m));
            }
            for r in &replies {
                black_box(encode_reply(r));
            }
        });
        self.put("dsm.codec.encode_ns", secs * 1e9 / count);
        let msg_frames: Vec<Vec<u8>> = msgs.iter().map(encode_msg).collect();
        let reply_frames: Vec<Vec<u8>> = replies.iter().map(encode_reply).collect();
        let secs = self.time("dsm.codec.decode", || {
            for f in &msg_frames {
                black_box(decode_msg(f).expect("own frame"));
            }
            for f in &reply_frames {
                black_box(decode_reply(f).expect("own frame"));
            }
        });
        self.put("dsm.codec.decode_ns", secs * 1e9 / count);
        let bytes: usize = msg_frames.iter().chain(&reply_frames).map(Vec::len).sum();
        self.put("dsm.codec.bytes_per_msg", bytes as f64 / count);

        let twin = vec![0u8; 4096];
        let mut sparse = twin.clone();
        for i in (0..4096).step_by(97) {
            sparse[i] = 1;
        }
        let reps = 200;
        let secs = self.time("dsm.page.diff", || {
            for _ in 0..reps {
                black_box(diff_bytes(&twin, &sparse));
            }
        });
        self.put("dsm.page.diff_us", secs * 1e6 / f64::from(reps));
        let patches = diff_bytes(&twin, &sparse);
        let mut page = twin.clone();
        let secs = self.time("dsm.page.apply", || {
            for _ in 0..reps {
                apply_patches(&mut page, &patches);
                black_box(&page);
            }
        });
        self.put("dsm.page.apply_us", secs * 1e6 / f64::from(reps));
    }

    /// DSM primitives between two in-process nodes (channel transport, no
    /// modelled network): host time per operation, timed on node 0.
    fn dsm_channel(&mut self) {
        const OPS: u32 = 500;
        let config = || DsmConfig::new(2).network(NetworkModel::zero());
        let per_op = |results: Vec<Duration>| results[0].as_secs_f64() * 1e6 / f64::from(OPS);

        let (run, _) = self.once("dsm.channel.lock", || {
            DsmSystem::run(config(), |node| {
                node.barrier();
                let t0 = Instant::now();
                // The lock's manager is the other node: a real round trip.
                if node.id() == 0 {
                    for _ in 0..OPS {
                        node.lock(1);
                        node.unlock(1);
                    }
                }
                let took = t0.elapsed();
                node.barrier();
                took
            })
        });
        self.put("dsm.channel.lock_rt_us", per_op(run.results));

        let (run, _) = self.once("dsm.channel.cv", || {
            DsmSystem::run(config(), |node| {
                node.barrier();
                let t0 = Instant::now();
                for _ in 0..OPS {
                    if node.id() == 0 {
                        node.setcv(0);
                        node.waitcv(1);
                    } else {
                        node.waitcv(0);
                        node.setcv(1);
                    }
                }
                let took = t0.elapsed();
                node.barrier();
                took
            })
        });
        self.put("dsm.channel.cv_rt_us", per_op(run.results));

        let (run, _) = self.once("dsm.channel.barrier", || {
            DsmSystem::run(config(), |node| {
                node.barrier();
                let t0 = Instant::now();
                for _ in 0..OPS {
                    node.barrier();
                }
                t0.elapsed()
            })
        });
        self.put("dsm.channel.barrier_us", per_op(run.results));

        let (run, _) = self.once("dsm.channel.page_fetch", || {
            DsmSystem::run(config(), |node| {
                // One i64 per 4 KiB page, all homed on node 1.
                let v = node.alloc_vec_on::<i64>(OPS as usize * 512, 1);
                node.barrier();
                let t0 = Instant::now();
                let mut sum = 0i64;
                if node.id() == 0 {
                    for k in 0..OPS as usize {
                        sum += node.vec_get(&v, k * 512);
                    }
                }
                let took = t0.elapsed();
                black_box(sum);
                node.barrier();
                took
            })
        });
        let fetches = run.stats[0].page_fetches.max(1) as f64;
        self.put(
            "dsm.channel.page_fetch_us",
            run.results[0].as_secs_f64() * 1e6 / fetches,
        );
    }

    /// Real ranks over loopback: one lossy run and two clean ones of a
    /// 400-bp workload. (The stall the clean numbers watch for — a rank
    /// retransmitting into a peer that is still lingering in the previous
    /// session — needs rank skew, so it is rarer at this size than at the
    /// 6 000 bp where it was found.)
    fn dsm_udp(&mut self) -> Result<(), String> {
        let sum =
            |ms: &[RankMetric], f: fn(&RankMetric) -> u64| ms.iter().map(f).sum::<u64>() as f64;
        let clean_spec = WorkloadSpec {
            len: 400,
            seed: self.sub_seed(70),
            procs: self.env.workers,
            plan: None,
        };
        let mut clean_walls = Vec::new();
        let mut stalled = 0;
        for rep in 0..2u64 {
            let run = self.cluster_probe(&clean_spec, "clean", 5_000 + 100 * rep)?;
            clean_walls.push(run.wall.as_secs_f64());
            let metrics = run.metrics()?;
            for (strategy, datagrams) in [
                ("heuristic", "dsm.udp.clean.datagrams.heuristic"),
                ("blocked", "dsm.udp.clean.datagrams.blocked"),
                ("preprocess", "dsm.udp.clean.datagrams.preprocess"),
                ("phase2", "dsm.udp.clean.datagrams.phase2"),
            ] {
                let of: Vec<RankMetric> = metrics
                    .iter()
                    .filter(|m| m.strategy == strategy)
                    .cloned()
                    .collect();
                // No loss, so anything retransmitted 50 times waited on a timer.
                if sum(&of, |m| m.retransmits) >= 50.0 {
                    stalled += 1;
                }
                if rep == 0 {
                    self.put(datagrams, sum(&of, |m| m.datagrams_sent));
                }
            }
        }
        let clean_walls = sorted(&clean_walls);
        self.put("dsm.udp.clean.best_s", clean_walls[0]);
        self.put("dsm.udp.clean.worst_s", clean_walls[1]);
        self.put("dsm.udp.clean.stalled_runs", f64::from(stalled));

        let lossy_spec = WorkloadSpec {
            plan: Some(LOSS15.to_string()),
            ..clean_spec
        };
        let run = self.cluster_probe(&lossy_spec, "loss15", 6_000)?;
        let metrics = run.metrics()?;
        let datagrams = sum(&metrics, |m| m.datagrams_sent);
        let retransmits = sum(&metrics, |m| m.retransmits);
        self.put("dsm.udp.loss15.wall_s", run.wall.as_secs_f64());
        self.put("dsm.udp.loss15.datagrams", datagrams);
        self.put("dsm.udp.loss15.retransmits", retransmits);
        self.put(
            "dsm.udp.loss15.retransmit_ratio",
            retransmits / datagrams.max(1.0),
        );
        self.put(
            "dsm.udp.loss15.dups_dropped",
            sum(&metrics, |m| m.dups_dropped),
        );
        self.put(
            "dsm.udp.loss15.ms_per_retransmit",
            (run.wall.as_secs_f64() - clean_walls[0]) * 1e3 / retransmits.max(1.0),
        );
        // Per rank: its wall minus the time inside its four sessions.
        let turnover: Vec<f64> = run
            .rank_walls
            .iter()
            .enumerate()
            .map(|(rank, wall)| {
                let sessions: u64 = metrics
                    .iter()
                    .filter(|m| m.rank == rank)
                    .map(|m| m.wall_us)
                    .sum();
                wall.as_secs_f64() - sessions as f64 / 1e6
            })
            .collect();
        self.put("dsm.udp.turnover_s", median(&turnover));
        Ok(())
    }

    /// One cluster run that ended well. Ranks can deadlock (rarely; see
    /// `cluster`), and a probe is not an operation that may fail, so
    /// a run that did not end is made again on fresh ports.
    fn cluster_probe(
        &mut self,
        spec: &WorkloadSpec,
        kind: &str,
        session: u64,
    ) -> Result<ClusterRun, String> {
        let env = self.env;
        for attempt in 0..3 {
            let (run, _) = self.once(&format!("cli.node.cluster_{kind}"), || {
                run_cluster(
                    env,
                    spec,
                    &format!("ledger-{kind}{session}-{attempt}"),
                    session + 10 * attempt,
                )
            });
            let run = run?;
            if run.ok {
                return Ok(run);
            }
        }
        Err(format!(
            "ledger: three {kind} UDP cluster runs in a row did not end well"
        ))
    }

    /// The four DSM programs a `genomedsm node` runs, in-process on `W`
    /// nodes with the parameters `cluster::run_workload` uses, host time.
    fn strategies(&mut self) -> Result<(), String> {
        let w = self.env.workers;
        let len = 1_500;
        let (s, t) = {
            let (s, t, _) = planted_pair(
                len,
                len,
                &HomologyPlan::paper_density(len * 8),
                self.sub_seed(80),
            );
            (s.into_bytes(), t.into_bytes())
        };
        let params = HeuristicParams {
            open_threshold: 8,
            close_threshold: 8,
            min_score: 15,
        };
        let cells = (len * len) as f64;
        macro_rules! traffic {
            ($strategy:literal, $secs:expr, $per_node:expr) => {{
                let mut agg = NodeStats::default();
                for st in $per_node {
                    agg.merge(st);
                }
                self.put(concat!("strategies.", $strategy, ".wall_s"), $secs);
                self.put(
                    concat!("strategies.", $strategy, ".msgs_sent"),
                    agg.msgs_sent as f64,
                );
                self.put(
                    concat!("strategies.", $strategy, ".bytes_sent"),
                    agg.bytes_sent as f64,
                );
                self.put(
                    concat!("strategies.", $strategy, ".page_fetches"),
                    agg.page_fetches as f64,
                );
            }};
        }

        let (h, secs) = self.once("strategies.heuristic", || {
            heuristic_align_dsm(&s, &t, &PAPER, &params, &HeuristicDsmConfig::new(w))
        });
        traffic!("heuristic", secs, &h.per_node);

        let (b, blocked_s) = self.once("strategies.blocked", || {
            heuristic_block_align(&s, &t, &PAPER, &params, &BlockedConfig::new(w, 8, 8))
        });
        traffic!("blocked", blocked_s, &b.per_node);
        self.put("strategies.blocked.mcups", cells / blocked_s / 1e6);
        let serial_s = self.time("core.heuristic_align", || {
            black_box(heuristic_align(&s, &t, &PAPER, &params));
        });
        self.put("strategies.blocked.vs_serial", blocked_s / serial_s);

        let mut config = PreprocessConfig::new(w);
        config.band = BandScheme::Balanced(256);
        config.chunk = ChunkPlan::Fixed(256);
        config.threshold = params.min_score;
        let (p, secs) = self.once("strategies.preprocess", || {
            preprocess_align(&s, &t, &PAPER, &config)
        });
        let p = p.map_err(|e| format!("ledger preprocess: {e}"))?;
        traffic!("preprocess", secs, &p.per_node);
        self.put("strategies.preprocess.gcups", cells / secs / 1e9);

        let dsm = DsmConfig::new(w).network(NetworkModel::paper_cluster());
        let (p2, secs) = self.once("strategies.phase2", || {
            phase2_scattered_with(&s, &t, &b.regions, &PAPER, &dsm)
        });
        let p2 = p2.map_err(|e| format!("ledger phase 2: {e}"))?;
        traffic!("phase2", secs, &p2.per_node);
        Ok(())
    }

    /// The service's parts on their own: protocol, admission, cache.
    fn serve_parts(&mut self) {
        let query = random_dna(150, self.sub_seed(90)).into_bytes();
        let hits: Vec<Hit> = (0..TOP_K)
            .map(|i| Hit {
                score: 40 - i as i32,
                target: 17 * i,
                end: (140, 300 + i),
            })
            .collect();
        let request = Request::Search {
            id: 1,
            top_k: TOP_K as u32,
            queries: vec![query.clone()],
            scoring: None,
        };
        let replies = [
            Response::Hits {
                id: 1,
                query: 0,
                cached: false,
                epoch: 1,
                hits: hits.clone(),
            },
            Response::Done { id: 1, queries: 1 },
        ];
        const REPS: u32 = 100;
        let per_rep = |secs: f64| secs * 1e9 / f64::from(REPS);

        let secs = self.time("serve.proto.request_encode", || {
            for _ in 0..REPS {
                black_box(request.encode());
            }
        });
        self.put("serve.proto.request_encode_ns", per_rep(secs));
        let frame = request.encode();
        let secs = self.time("serve.proto.request_decode", || {
            for _ in 0..REPS {
                black_box(Request::decode(&frame).expect("own frame"));
            }
        });
        self.put("serve.proto.request_decode_ns", per_rep(secs));
        let secs = self.time("serve.proto.response_encode", || {
            for _ in 0..REPS {
                for r in &replies {
                    black_box(r.encode());
                }
            }
        });
        self.put("serve.proto.response_encode_ns", per_rep(secs));
        let frames: Vec<Vec<u8>> = replies.iter().map(Response::encode).collect();
        let secs = self.time("serve.proto.response_decode", || {
            for _ in 0..REPS {
                for f in &frames {
                    black_box(Response::decode(f).expect("own frame"));
                }
            }
        });
        self.put("serve.proto.response_decode_ns", per_rep(secs));

        let blob = vec![0x5Au8; 4096];
        let secs = self.time("serve.proto.hex", || {
            for _ in 0..REPS {
                black_box(from_hex_line(&to_hex_line(&blob)).expect("own line"));
            }
        });
        self.put("serve.proto.hex_ns_per_kb", per_rep(secs) / 4.0);
        let wire: usize = std::iter::once(&frame)
            .chain(&frames)
            .map(|f| to_hex_line(f).len() + 1)
            .sum();
        self.put("serve.proto.bytes_per_request", wire as f64);

        let queue: AdmissionQueue<u32> = AdmissionQueue::new(16);
        let secs = self.time("serve.admission.submit_next", || {
            for i in 0..REPS {
                let _ = queue.submit("perf", 1, 1, i);
                black_box(queue.next());
            }
        });
        self.put("serve.admission.submit_next_ns", per_rep(secs));

        let cache = ResultCache::new(1024);
        let keys: Vec<QueryKey> = (0..REPS)
            .map(|i| QueryKey::of(&random_dna(150, self.sub_seed(100 + u64::from(i))).into_bytes()))
            .collect();
        let answer = Arc::new(hits);
        let secs = self.time("serve.cache.insert", || {
            for &k in &keys {
                cache.insert(k, TOP_K, 1, 1, Arc::clone(&answer));
            }
        });
        self.put("serve.cache.insert_ns", per_rep(secs));
        let secs = self.time("serve.cache.get", || {
            for &k in &keys {
                black_box(cache.get(k, TOP_K, 1, 1));
            }
        });
        self.put("serve.cache.get_ns", per_rep(secs));
    }

    /// The service whole, in this process: `Server::start` on a 50-kbp
    /// database, one connection, a fixed script of requests.
    fn serve_service(&mut self) -> Result<(), String> {
        let err =
            |what: &str, e: genomedsm::serve::ServeError| format!("ledger serve: {what}: {e}");
        let mut rng = SplitMix64::new(self.sub_seed(110));
        let db_path = self.env.path("ledger-serve-db.fa");
        let records = gen::ragged_lengths(100, 500, 250, &mut rng);
        write_records(false, "r", &records, self.sub_seed(111), &db_path)?;
        let seed = self.seed;
        let query = |i: u64| random_dna(150, gen::sub_seed(seed, 0x5e7e + i)).into_bytes();
        let singles: Vec<Vec<u8>> = (0..20).map(query).collect();

        let mut config = ServerConfig::new(self.env.path("ledger-serve.sock"), &db_path);
        config.workers = self.env.workers;
        config.engine = engine_config(ScoreMode::Dna, 1);
        let socket = config.socket.clone();
        let ((server, mut client), startup_s) = {
            let (started, secs) = self.once("serve.startup", || {
                let server = Server::start(config)?;
                let mut client = ServeClient::connect(&socket)?;
                client.hello("ledger", 1)?;
                Ok::<_, genomedsm::serve::ServeError>((server, client))
            });
            (started.map_err(|e| err("start", e))?, secs)
        };
        self.put("serve.startup_ms", startup_s * 1e3);

        // 20 computed, then each of them 5 more times from the cache:
        // 100 hits of 120 lookups, whatever the timing.
        let mut cold_ms = Vec::new();
        for q in &singles {
            let (reply, secs) = self.once("serve.request.single", || {
                client.search(std::slice::from_ref(q), TOP_K, |_| {})
            });
            reply.map_err(|e| err("single", e))?;
            cold_ms.push(secs * 1e3);
        }
        let mut warm_us = Vec::new();
        for round in 0..5 {
            for q in &singles {
                let t0 = Instant::now();
                client
                    .search(std::slice::from_ref(q), TOP_K, |_| {})
                    .map_err(|e| err("warm", e))?;
                if round > 0 {
                    warm_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        let stats = client.stats().map_err(|e| err("stats", e))?;
        self.put(
            "serve.cache.hit_ratio",
            stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
        );
        // More warm samples for the percentiles (not part of the ratio).
        while warm_us.len() < 2_000 {
            let q = &singles[warm_us.len() % singles.len()];
            let t0 = Instant::now();
            client
                .search(std::slice::from_ref(q), TOP_K, |_| {})
                .map_err(|e| err("warm", e))?;
            warm_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let warm_us = sorted(&warm_us);
        self.put("serve.warm.p50_us", warm_us[warm_us.len() / 2]);
        self.put("serve.warm.p99_us", warm_us[warm_us.len() * 99 / 100]);

        // The same single query in the engine alone, as the server runs it.
        let db =
            SeqDatabase::load_fasta_file(&db_path).map_err(|e| format!("ledger serve db: {e}"))?;
        let engine = BatchEngine::new(engine_config(ScoreMode::Dna, 1));
        let refs = [singles[0].as_slice()];
        let engine_s = self.time("batch.engine.search_single", || {
            black_box(engine.search(&db, &refs));
        });
        self.put("serve.single.engine_ms", engine_s * 1e3);
        self.put(
            "serve.single.overhead_ms",
            median(&cold_ms) - engine_s * 1e3,
        );
        self.put(
            "serve.single.lane_occupancy",
            1.0 / effective_lanes(KernelChoice::Auto) as f64,
        );

        let lanes = effective_lanes(KernelChoice::Auto) as u64;
        let t0 = Instant::now();
        let mut answers = 0;
        for request in 0..4u64 {
            let batch: Vec<Vec<u8>> = (0..lanes)
                .map(|i| query(1_000 + request * lanes + i))
                .collect();
            let (reply, _) = self.once("serve.request.batched", || {
                client.search(&batch, TOP_K, |_| {})
            });
            answers += reply.map_err(|e| err("batched", e))?.answers.len();
        }
        self.put(
            "serve.batched.qps",
            answers as f64 / t0.elapsed().as_secs_f64(),
        );

        let stats = client.stats().map_err(|e| err("stats", e))?;
        self.put("serve.queue.high_water", stats.high_water as f64);
        self.put("serve.rejected", stats.rejected as f64);
        drop(client);
        server.stop();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_in_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in METRICS {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit.len() <= 16);
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(METRICS.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let per_layer = text.split("\"per_layer\"").nth(1).expect("per_layer key");
        for (name, unit, better) in METRICS {
            let better = if *better == Higher { "higher" } else { "lower" };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), METRICS.len());
    }
}
