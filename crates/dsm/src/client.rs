//! The worker side of the DSM protocol as a state machine.
//!
//! A [`Client`] holds what a worker knows: the page cache with twins and
//! modified set, the notices it owes, the lock and cv watermarks, the
//! held lock, the allocation counter and home map, the epoch, the dead
//! sets, its incarnation and the protocol counters. It does no I/O and
//! names no clock, channel or lock. Each API call appends the requests
//! it needs to one in-order queue ([`Client::next_request`]);
//! [`Client::reply`] consumes the answer to each one that awaits a reply
//! ([`Msg::awaits_reply`]) and may queue more: an eviction's diff after
//! the page it made room for, a dirty page's diff before a foreign notice
//! drops it, a cv wait parked again after a death already known.
//!
//! [`crate::Node`] sends each request over the fabric and charges the
//! wait to its virtual clock; the model checker in `genomedsm-verify`
//! puts each on a scheduled link to a real [`crate::daemon::Daemon`]. So
//! the worker code the checker explores is the code the strategies run.
//! A read or write of cached pages queues nothing and allocates nothing;
//! one that faults copies up to the missing page, queues its `GetPage`
//! and returns the bytes moved, to be called again from there.

use crate::config::DsmConfig;
use crate::msg::{Msg, Notice, Reply};
use crate::page::CachedPage;
use crate::stats::NodeStats;
use crate::vec::{DsmData, GlobalAddr, GlobalVec};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::panic::Location;

/// One worker's protocol state (see the module docs). [`crate::Node`]
/// reads the fields it reports in-crate.
#[derive(Default)]
pub struct Client {
    pub(crate) id: usize,
    pub(crate) nprocs: usize,
    pub(crate) page_size: usize,
    page_shift: u32,
    cache_capacity: usize,
    cache: HashMap<u64, CachedPage>,
    cache_order: VecDeque<u64>,
    modified: HashSet<u64>,
    /// Notices of the current release operation's flushes, and of every
    /// flush since the last barrier.
    pending_notices: Vec<Notice>,
    notices_since_barrier: Vec<Notice>,
    lock_seq: HashMap<u32, u64>,
    cv_seq: HashMap<u32, u64>,
    /// The one lock this worker holds, with the site that acquired it.
    /// A worker holds at most one DSM lock, so no two workers can wait on
    /// each other's locks (DESIGN.md §5.10).
    held_lock: Option<(u32, &'static Location<'static>)>,
    /// The cv whose wait is out.
    waiting_cv: Option<u32>,
    alloc_next_page: u64,
    /// Per allocation, its first page and its one home; `None` puts page
    /// `p` on node `p mod nprocs` (JIAJIA's default NUMA distribution).
    home_map: Vec<(u64, Option<usize>)>,
    /// Migration epoch: completed barrier rounds, attached to page
    /// requests.
    pub(crate) epoch: u64,
    /// Pages whose home moved away from the static map (home migration).
    home_overrides: HashMap<u64, usize>,
    /// Nodes this worker knows to be dead (from `NodeFailed` wake-ups
    /// and barrier grants).
    known_dead: BTreeSet<usize>,
    /// Every death this worker has *ever* learned of, never cleared: a
    /// `NodeFailed` naming one of them parks the wait again.
    known_ever_dead: BTreeSet<usize>,
    /// Set by [`Client::fail_stop`]: every further call is inert.
    pub(crate) failed: bool,
    /// Bumped by every [`Client::rejoin`], carried in the announcement so
    /// daemons can tell apart distinct lives of the same rank.
    pub(crate) incarnation: u32,
    /// The death that ended the last cv wait, until taken.
    pub(crate) failure: Option<usize>,
    /// Requests not yet sent, in order: `(daemon, request)`.
    queue: VecDeque<(usize, Msg)>,
    /// The protocol counters; `Node` charges the time buckets and traffic.
    pub(crate) stats: NodeStats,
}

impl Client {
    /// The protocol state of worker `id` in a cluster run with `config`.
    pub fn new(id: usize, config: &DsmConfig) -> Self {
        Self {
            id,
            nprocs: config.nprocs,
            page_size: config.page_size,
            page_shift: config.page_size.trailing_zeros(),
            cache_capacity: config.cache_pages,
            ..Self::default()
        }
    }

    /// The oldest request not yet sent, with the daemon it goes to.
    pub fn next_request(&mut self) -> Option<(usize, Msg)> {
        self.queue.pop_front()
    }

    /// Whether a request is queued.
    pub fn has_requests(&self) -> bool {
        !self.queue.is_empty()
    }

    fn push(&mut self, to: usize, msg: Msg) {
        self.queue.push_back((to, msg));
    }

    /// Consumes the reply to the oldest sent request that awaits one.
    pub fn reply(&mut self, reply: Reply) {
        match reply {
            Reply::Page { page, data } => {
                self.stats.page_fetches += 1;
                self.insert_page(page, CachedPage::clean(data));
            }
            Reply::DiffAck => {}
            Reply::LockGranted { notices, seq } => {
                let Some((lock, _)) = self.held_lock else {
                    panic!("node {}: a lock grant with no lock requested", self.id)
                };
                self.lock_seq.insert(lock, seq);
                self.invalidate(&notices);
            }
            Reply::CvGranted { notices, seq } => {
                let Some(cv) = self.waiting_cv.take() else {
                    panic!("node {}: a cv grant with no wait out", self.id)
                };
                self.cv_seq.insert(cv, seq);
                self.invalidate(&notices);
            }
            Reply::NodeFailed { node } => {
                if self.known_ever_dead.insert(node) {
                    self.known_dead.insert(node);
                    (self.waiting_cv, self.failure) = (None, Some(node));
                } else if let Some(cv) = self.waiting_cv {
                    // A death this worker unwound for already, told again
                    // by a manager that could not know: the wait stands,
                    // so park it again.
                    self.push_wait(cv);
                }
            }
            Reply::BarrierDone {
                notices,
                migrations,
                dead,
            } => {
                self.invalidate(&notices);
                self.epoch += 1;
                for (page, new_home) in migrations {
                    self.home_overrides.insert(page, new_home);
                    self.stats.migrations += 1;
                }
                // The grant's dead set is the round's authoritative view:
                // it *replaces* this worker's, so a rank admitted back
                // leaves every survivor's at the same round. A death racing
                // past a stale grant is re-learned at the next wait.
                self.known_ever_dead.extend(dead.iter().copied());
                self.known_dead = dead.into_iter().collect();
            }
            Reply::RejoinAck {
                round,
                dead,
                migrations,
            } => {
                self.epoch = round;
                // The log is cumulative over the whole run, so its length
                // is the migration count every live node has observed.
                self.stats.migrations = self.stats.migrations.max(migrations.len() as u64);
                self.home_overrides.extend(migrations);
                self.known_ever_dead.extend(dead.iter().copied());
                self.known_dead = dead.into_iter().collect();
            }
        }
    }

    /// Allocates `bytes` of zeroed shared memory: pages round-robin over
    /// the nodes, or all homed on `home`. Collective: every node makes the
    /// same calls in the same order, so all compute the same addresses.
    pub fn alloc(&mut self, bytes: usize, home: Option<usize>) -> GlobalAddr {
        assert!(
            home.is_none_or(|h| h < self.nprocs),
            "home node out of range"
        );
        let pages = bytes.div_ceil(self.page_size).max(1) as u64;
        let first = self.alloc_next_page;
        self.home_map.push((first, home));
        self.alloc_next_page += pages;
        GlobalAddr(first << self.page_shift)
    }

    fn page_home(&self, page: u64) -> usize {
        if let Some(&home) = self.home_overrides.get(&page) {
            return home;
        }
        // The home map is append-only and sorted by first page.
        let Some(idx) = self
            .home_map
            .partition_point(|(first, _)| *first <= page)
            .checked_sub(1)
        else {
            panic!("access to unallocated shared memory: page {page} precedes every allocation")
        };
        self.home_map[idx].1.unwrap_or(page as usize % self.nprocs)
    }

    fn insert_page(&mut self, page: u64, cached: CachedPage) {
        while self.cache.len() >= self.cache_capacity {
            self.evict_one();
        }
        self.cache.insert(page, cached);
        self.cache_order.push_back(page);
    }

    /// The replacement algorithm: evict the oldest clean page; if all
    /// cached pages are modified, flush the oldest one's diff first.
    fn evict_one(&mut self) {
        let Some(victim) = self
            .cache_order
            .iter()
            .copied()
            .find(|p| !self.modified.contains(p))
            .or_else(|| self.cache_order.front().copied())
        else {
            unreachable!("evict_one is only called with a full (non-empty) cache")
        };
        self.drop_page(victim);
        self.stats.evictions += 1;
    }

    /// Drops a cached page, flushing it first if it is modified.
    fn drop_page(&mut self, page: u64) {
        self.flush_page(page);
        self.cache.remove(&page);
        self.cache_order.retain(|&p| p != page);
    }

    /// Drops `page` if it is cached, counting an invalidation. A modified
    /// copy is flushed first: an unflushed write must be published before
    /// the copy goes (nested intervals).
    fn invalidate_page(&mut self, page: u64) {
        if self.cache.contains_key(&page) {
            self.drop_page(page);
            self.stats.invalidations += 1;
        }
    }

    /// Queues one page's diff home and records the write notice.
    fn flush_page(&mut self, page: u64) {
        let Some(cached) = self.cache.get_mut(&page) else {
            return;
        };
        let Some(patches) = cached.take_diff() else {
            return;
        };
        self.modified.remove(&page);
        let home = self.page_home(page);
        let (from, epoch) = (self.id, self.epoch);
        // A page written with the bytes it held sends no diff, but its
        // notice still goes out: the home may hold those bytes from a
        // writer that never released them (one that fail-stopped after an
        // early flush), and a reader's older copy must not outlive this
        // release.
        if !patches.is_empty() {
            self.push(
                home,
                Msg::Diff {
                    page,
                    from,
                    patches,
                    epoch,
                },
            );
            self.stats.diffs_sent += 1;
        }
        let writer = from;
        let notice = Notice { page, writer, home };
        self.notices_since_barrier.push(notice);
        self.pending_notices.push(notice);
    }

    /// Queues the diffs of all modified pages, returning the interval's
    /// write notices (including notices from pages flushed early by
    /// eviction).
    fn flush_all(&mut self) -> Vec<Notice> {
        let mut pages: Vec<u64> = self.modified.iter().copied().collect();
        pages.sort_unstable(); // deterministic flush order
        for page in pages {
            self.flush_page(page);
        }
        std::mem::take(&mut self.pending_notices)
    }

    fn invalidate(&mut self, notices: &[Notice]) {
        // Own writes: home already has them, the cache is fresh.
        let me = self.id;
        for n in notices.iter().filter(|n| n.writer != me) {
            self.invalidate_page(n.page);
        }
    }

    /// The page at `pos`, the offset in it, and how many of `left` bytes
    /// lie in it; queues the page's fetch if it is not cached.
    fn locate(&mut self, pos: u64, left: usize) -> Option<(u64, usize, usize)> {
        let page = pos >> self.page_shift;
        if !self.cache.contains_key(&page) {
            let (from, epoch) = (self.id, self.epoch);
            self.push(self.page_home(page), Msg::GetPage { page, from, epoch });
            return None;
        }
        let off = (pos & (self.page_size as u64 - 1)) as usize;
        Some((page, off, (self.page_size - off).min(left)))
    }

    /// The cached copy of `page`, if any.
    pub fn cached(&self, page: u64) -> Option<&[u8]> {
        self.cache.get(&page).map(|c| c.data.as_slice())
    }

    /// Reads into `out` from `addr` up to the first page not cached,
    /// whose fetch it queues; returns the bytes read.
    pub fn read_bytes(&mut self, addr: GlobalAddr, out: &mut [u8]) -> usize {
        let mut done = 0;
        while done < out.len() {
            let Some((page, off, take)) = self.locate(addr.0 + done as u64, out.len() - done)
            else {
                break;
            };
            out[done..done + take].copy_from_slice(&self.cache[&page].data[off..off + take]);
            done += take;
        }
        done
    }

    /// Writes `data` from `addr` up to the first page not cached, whose
    /// fetch it queues; returns the bytes written.
    pub fn write_bytes(&mut self, addr: GlobalAddr, data: &[u8]) -> usize {
        let mut done = 0;
        while done < data.len() {
            let Some((page, off, take)) = self.locate(addr.0 + done as u64, data.len() - done)
            else {
                break;
            };
            let Some(cached) = self.cache.get_mut(&page) else {
                unreachable!("locate found page {page} cached")
            };
            cached.ensure_writable();
            self.modified.insert(page);
            cached.data[off..off + take].copy_from_slice(&data[done..done + take]);
            done += take;
        }
        done
    }

    /// The pages backing a shared array (none for an empty one).
    fn pages_of<T: DsmData>(&self, v: &GlobalVec<T>) -> std::ops::Range<u64> {
        if v.is_empty() {
            return 0..0;
        }
        let first = v.base.0 >> self.page_shift;
        let last = (v.base.0 + v.byte_len() as u64 - 1) >> self.page_shift;
        first..last + 1
    }

    /// Queues the diffs of the modified pages backing `v`; their write
    /// notices stay pending for the next release.
    pub fn flush_vec<T: DsmData>(&mut self, v: &GlobalVec<T>) {
        for page in self.pages_of(v) {
            self.flush_page(page);
        }
    }

    /// Drops the cached copies of the pages backing `v`, flushing a
    /// modified one first.
    pub fn invalidate_vec<T: DsmData>(&mut self, v: &GlobalVec<T>) {
        for page in self.pages_of(v) {
            self.invalidate_page(page);
        }
    }

    /// Queues the acquire of `lock`; its grant's notices invalidate.
    ///
    /// # Panics
    /// If this worker already holds a lock, naming both locks and both
    /// call sites.
    #[track_caller]
    pub fn lock(&mut self, lock: u32) {
        if self.failed {
            return;
        }
        let site = Location::caller();
        if let Some((held, held_site)) = self.held_lock {
            panic!(
                "node {} acquired lock {lock} at {site} while holding lock {held} \
                 (acquired at {held_site}): a worker holds at most one DSM lock",
                self.id
            );
        }
        self.held_lock = Some((lock, site));
        let last_seq = self.lock_seq.get(&lock).copied().unwrap_or(0);
        let from = self.id;
        self.push(
            self.manager(lock),
            Msg::Acquire {
                lock,
                from,
                last_seq,
            },
        );
    }

    /// Queues the interval's diffs and the release of `lock` carrying
    /// their write notices.
    ///
    /// # Panics
    /// If this worker does not hold `lock`.
    pub fn unlock(&mut self, lock: u32) {
        if self.failed {
            return;
        }
        assert!(
            self.held_lock.take_if(|(held, _)| *held == lock).is_some(),
            "node {} released lock {lock} it does not hold",
            self.id
        );
        let notices = self.flush_all();
        let from = self.id;
        self.push(
            self.manager(lock),
            Msg::Release {
                lock,
                from,
                notices,
            },
        );
    }

    /// Queues the interval's diffs and a signal of `cv` carrying their
    /// write notices.
    pub fn setcv(&mut self, cv: u32) {
        if self.failed {
            return;
        }
        let notices = self.flush_all();
        let from = self.id;
        self.push(self.manager(cv), Msg::SetCv { cv, from, notices });
    }

    /// Queues a wait on `cv`. It ends with a grant, whose notices
    /// invalidate, or with a death this worker had not yet unwound for
    /// (`failure`).
    pub fn waitcv(&mut self, cv: u32) {
        if self.failed {
            return;
        }
        self.waiting_cv = Some(cv);
        self.push_wait(cv);
    }

    fn push_wait(&mut self, cv: u32) {
        let last_seq = self.cv_seq.get(&cv).copied().unwrap_or(0);
        let from = self.id;
        self.push(self.manager(cv), Msg::WaitCv { cv, from, last_seq });
    }

    /// Queues the interval's diffs and the arrival at the barrier with
    /// every write notice since the previous one; the grant's notices
    /// invalidate, its migrations re-home pages and its dead set replaces
    /// this worker's.
    pub fn barrier(&mut self) {
        if self.failed {
            return;
        }
        self.flush_all();
        let notices = std::mem::take(&mut self.notices_since_barrier);
        let from = self.id;
        self.push(0, Msg::Barrier { from, notices });
    }

    fn manager(&self, id: u32) -> usize {
        id as usize % self.nprocs
    }

    /// Fail-stops this worker: drops what it has not sent, queues its
    /// obituary to every daemon, and makes every further call inert.
    pub fn fail_stop(&mut self) {
        if self.failed {
            return;
        }
        self.queue.clear();
        let (node, incarnation) = (self.id, self.incarnation);
        for d in 0..self.nprocs {
            self.push(d, Msg::Obituary { node, incarnation });
        }
        self.failed = true;
    }

    /// After a fail-stop, discards all a fresh process would not have —
    /// the cache with its twins and writes, the notices, the held lock and
    /// the watermarks (the next acquire replays full notice history) —
    /// and queues the announcement for the boundary `admit_at_round`
    /// (re-deferred by `stride` if late). The ack sets epoch, home
    /// overrides and dead set.
    pub fn rejoin(&mut self, admit_at_round: u64, stride: u64) {
        if !self.failed {
            return;
        }
        self.cache.clear();
        self.cache_order.clear();
        self.modified.clear();
        self.pending_notices.clear();
        self.notices_since_barrier.clear();
        self.lock_seq.clear();
        self.cv_seq.clear();
        self.held_lock = None;
        self.failed = false;
        // The joiner has trivially "processed" its own death: a manager
        // the forwarded admission has not reached yet may still report
        // it, and that must not fail the joiner's wait.
        self.known_ever_dead.insert(self.id);
        self.incarnation += 1;
        self.stats.rejoins += 1;
        let (node, incarnation) = (self.id, self.incarnation);
        self.push(
            0,
            Msg::Rejoin {
                node,
                incarnation,
                admit_at_round,
                stride,
            },
        );
    }

    /// The nodes this worker knows to be dead (sorted).
    pub(crate) fn known_dead(&self) -> Vec<usize> {
        self.known_dead.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Patch;

    /// Worker 0 of two, with 64-byte pages and a `cache`-page cache, and
    /// the address of a `pages`-page allocation homed on node 1.
    fn client(cache: usize, pages: usize) -> (Client, GlobalAddr) {
        let config = DsmConfig::new(2).page_size(64).cache_pages(cache);
        let mut c = Client::new(0, &config);
        let base = c.alloc(pages * 64, Some(1));
        (c, base)
    }

    fn page(page: u64) -> Reply {
        Reply::Page {
            page,
            data: vec![0; 64],
        }
    }

    /// Pops the next request, which must be `expect` to daemon 1.
    fn sends(c: &mut Client, expect: Msg) {
        assert_eq!(c.next_request(), Some((1, expect)));
    }

    fn get(page: u64) -> Msg {
        let (from, epoch) = (0, 0);
        Msg::GetPage { page, from, epoch }
    }

    /// Worker 0's diff setting byte 0 of `page` to 7.
    fn diff(page: u64) -> Msg {
        let patches = [Patch {
            offset: 0,
            data: vec![7],
        }]
        .into_iter()
        .collect();
        let (from, epoch) = (0, 0);
        Msg::Diff {
            page,
            from,
            patches,
            epoch,
        }
    }

    /// Makes byte 0 of `page` dirty, fetching the page first.
    fn dirty(c: &mut Client, base: GlobalAddr, page: u64) {
        let addr = base.offset(page * 64);
        assert_eq!(c.write_bytes(addr, &[7]), 0, "the page faults");
        sends(c, get(page));
        c.reply(self::page(page));
        assert_eq!(c.write_bytes(addr, &[7]), 1);
        assert_eq!(c.next_request(), None, "a cached write sends nothing");
    }

    #[test]
    fn a_fetch_that_evicts_a_dirty_page_sends_its_diff_after_the_page_arrives() {
        let (mut c, base) = client(1, 2);
        dirty(&mut c, base, 0);
        let mut out = [0; 4];
        assert_eq!(c.read_bytes(base.offset(64), &mut out), 0);
        sends(&mut c, get(1));
        assert_eq!(c.next_request(), None, "nothing before the page arrives");
        c.reply(page(1));
        sends(&mut c, diff(0));
        c.reply(Reply::DiffAck);
        assert_eq!(c.next_request(), None);
        assert_eq!(c.read_bytes(base.offset(64), &mut out), 4);
        assert_eq!((c.stats.evictions, c.stats.diffs_sent), (1, 1));
        // The evicted page is gone: the next read of it fetches again.
        assert_eq!(c.read_bytes(base, &mut out), 0);
        sends(&mut c, get(0));
    }

    #[test]
    fn a_foreign_notice_on_a_dirty_page_sends_its_diff_before_dropping_it() {
        let (mut c, base) = client(4, 1);
        dirty(&mut c, base, 0);
        c.lock(1);
        let (lock, from, last_seq) = (1, 0, 0);
        sends(
            &mut c,
            Msg::Acquire {
                lock,
                from,
                last_seq,
            },
        );
        let foreign = Notice {
            page: 0,
            writer: 1,
            home: 1,
        };
        c.reply(Reply::LockGranted {
            notices: vec![foreign],
            seq: 1,
        });
        sends(&mut c, diff(0));
        c.reply(Reply::DiffAck);
        assert_eq!(c.next_request(), None);
        assert_eq!(c.cached(0), None, "the page is dropped after its diff");
        assert_eq!(c.stats.invalidations, 1);
        let mut out = [0; 1];
        assert_eq!(c.read_bytes(base, &mut out), 0);
        sends(&mut c, get(0));
    }

    #[test]
    fn a_page_rewritten_with_its_own_bytes_sends_no_diff_but_its_notice() {
        let (mut c, base) = client(4, 1);
        let (lock, from) = (1, 0);
        c.lock(lock);
        sends(
            &mut c,
            Msg::Acquire {
                lock,
                from,
                last_seq: 0,
            },
        );
        c.reply(Reply::LockGranted {
            notices: Vec::new(),
            seq: 1,
        });
        assert_eq!(c.write_bytes(base, &[0]), 0);
        sends(&mut c, get(0));
        c.reply(page(0));
        assert_eq!(c.write_bytes(base, &[0]), 1, "zero over zero");
        c.unlock(lock);
        // The home may hold these bytes from a writer that never released
        // them; a reader's older copy must not outlive this release.
        let (page, writer, home) = (0, 0, 1);
        let notices = vec![Notice { page, writer, home }];
        sends(
            &mut c,
            Msg::Release {
                lock,
                from,
                notices,
            },
        );
        assert_eq!(c.next_request(), None);
    }

    #[test]
    fn a_rejoined_client_replays_lock_history_and_refetches_its_pages() {
        let (mut c, base) = client(4, 1);
        let (lock, from) = (1, 0);
        c.lock(lock);
        sends(
            &mut c,
            Msg::Acquire {
                lock,
                from,
                last_seq: 0,
            },
        );
        c.reply(Reply::LockGranted {
            notices: Vec::new(),
            seq: 3,
        });
        let mut out = [0; 1];
        assert_eq!(c.read_bytes(base, &mut out), 0);
        sends(&mut c, get(0));
        c.reply(page(0));
        c.unlock(lock);
        let notices = Vec::new();
        sends(
            &mut c,
            Msg::Release {
                lock,
                from,
                notices,
            },
        );
        c.lock(lock);
        sends(
            &mut c,
            Msg::Acquire {
                lock,
                from,
                last_seq: 3,
            },
        );
        c.fail_stop();
        let obituaries: Vec<_> = std::iter::from_fn(|| c.next_request()).collect();
        let obituary = |d| {
            let (node, incarnation) = (0, 0);
            (d, Msg::Obituary { node, incarnation })
        };
        assert_eq!(obituaries, [obituary(0), obituary(1)]);
        c.lock(lock);
        assert_eq!(c.next_request(), None, "a dead worker sends nothing");
        c.rejoin(2, 2);
        let (node, incarnation, admit_at_round, stride) = (0, 1, 2, 2);
        let rejoin = Msg::Rejoin {
            node,
            incarnation,
            admit_at_round,
            stride,
        };
        assert_eq!(c.next_request(), Some((0, rejoin)));
        c.reply(Reply::RejoinAck {
            round: 2,
            dead: Vec::new(),
            migrations: Vec::new(),
        });
        assert_eq!(c.epoch, 2);
        c.lock(lock);
        sends(
            &mut c,
            Msg::Acquire {
                lock,
                from,
                last_seq: 0,
            },
        );
        c.reply(Reply::LockGranted {
            notices: Vec::new(),
            seq: 3,
        });
        assert_eq!(c.read_bytes(base, &mut out), 0);
        let (page, epoch) = (0, 2);
        sends(&mut c, Msg::GetPage { page, from, epoch });
    }

    /// A cv manager the forwarded admission has not reached yet may report
    /// the joiner's own death to it; the joiner's wait stands.
    #[test]
    fn a_joiner_told_of_its_own_death_waits_on() {
        let (mut c, _) = client(4, 1);
        c.fail_stop();
        while c.next_request().is_some() {}
        c.rejoin(0, 0);
        assert!(c.next_request().is_some(), "the announcement");
        c.reply(Reply::RejoinAck {
            round: 0,
            dead: Vec::new(),
            migrations: Vec::new(),
        });
        c.waitcv(1);
        let (cv, from, last_seq) = (1, 0, 0);
        sends(&mut c, Msg::WaitCv { cv, from, last_seq });
        c.reply(Reply::NodeFailed { node: 0 });
        assert_eq!(c.failure, None);
        sends(&mut c, Msg::WaitCv { cv, from, last_seq });
    }
}
