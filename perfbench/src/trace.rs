//! The traced run's instruments, all outside the program under test.
//!
//! * [`Traced`] wraps one role's `NodeHandler`. It forwards every callback
//!   unchanged — the shared payload `Rc` is handed straight through, so
//!   clone behaviour is identical — and books one span per callback under
//!   the role and the message kind (`timer` and `start` for the other two
//!   entry points).
//! * [`CountingAlloc`] counts heap allocations while counting is switched
//!   on. The untraced run never switches it on and pays one relaxed load
//!   per allocation.
//!
//! Spans are folded into per-(role, kind) totals in memory as they close:
//! the engine dispatches handlers one at a time on the calling thread, so
//! spans never overlap and a role's self time is the sum of its spans.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use sds_core::{ClientNode, RegistryNode, ServiceNode};
use sds_protocol::DiscoveryMessage;
use sds_simnet::{Ctx, NodeHandler, NodeId, TimerId};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter that only runs while
/// [`set_counting`] has switched it on. The counters publish no other
/// data, so relaxed ordering suffices.
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the wrapper only bumps a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The three roles, named after their module in `sds-core`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    Registry,
    Service,
    Client,
}

impl Role {
    pub const ALL: [Role; 3] = [Role::Registry, Role::Service, Role::Client];

    pub fn layer(self) -> &'static str {
        match self {
            Role::Registry => "core.registry_node",
            Role::Service => "core.service_node",
            Role::Client => "core.client_node",
        }
    }
}

/// Totals of the spans booked under one (role, kind).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotal {
    pub calls: u64,
    pub nanos: u64,
    pub allocs: u64,
}

/// In-memory span book of the traced run.
#[derive(Default)]
pub struct Book {
    spans: Vec<(Role, &'static str, SpanTotal)>,
    /// `(client, registry)` for every `query-retry` a registry received,
    /// resolved against the client's home registry after each window.
    pub retries_seen: Vec<(NodeId, NodeId)>,
}

impl Book {
    fn add(&mut self, role: Role, kind: &'static str, nanos: u64, allocs: u64) {
        let slot = match self
            .spans
            .iter()
            .position(|(r, k, _)| *r == role && *k == kind)
        {
            Some(i) => &mut self.spans[i].2,
            None => {
                self.spans.push((role, kind, SpanTotal::default()));
                &mut self.spans.last_mut().expect("just pushed").2
            }
        };
        slot.calls += 1;
        slot.nanos += nanos;
        slot.allocs += allocs;
    }

    /// Totals for one role and kind (zero when never booked).
    pub fn get(&self, role: Role, kind: &str) -> SpanTotal {
        self.spans
            .iter()
            .find(|(r, k, _)| *r == role && *k == kind)
            .map(|s| s.2)
            .unwrap_or_default()
    }

    /// Totals over every kind of one role.
    pub fn role_total(&self, role: Role) -> SpanTotal {
        self.spans
            .iter()
            .filter(|s| s.0 == role)
            .fold(SpanTotal::default(), |a, s| SpanTotal {
                calls: a.calls + s.2.calls,
                nanos: a.nanos + s.2.nanos,
                allocs: a.allocs + s.2.allocs,
            })
    }

    /// Every booked (role, kind) total, sorted for stable output.
    pub fn spans(&self) -> Vec<(Role, &'static str, SpanTotal)> {
        let mut v = self.spans.clone();
        v.sort_by_key(|s| (s.0, s.1));
        v
    }
}

thread_local! {
    static BOOK: RefCell<Book> = RefCell::new(Book::default());
}

/// Empties the book and returns what it held.
pub fn take_book() -> Book {
    BOOK.with(|b| std::mem::take(&mut *b.borrow_mut()))
}

/// Runs `f` with the book borrowed mutably.
pub fn with_book<R>(f: impl FnOnce(&mut Book) -> R) -> R {
    BOOK.with(|b| f(&mut b.borrow_mut()))
}

/// A role handler the traced run can wrap.
pub trait TracedRole: NodeHandler<DiscoveryMessage> {
    const ROLE: Role;
}

impl TracedRole for RegistryNode {
    const ROLE: Role = Role::Registry;
}

impl TracedRole for ServiceNode {
    const ROLE: Role = Role::Service;
}

impl TracedRole for ClientNode {
    const ROLE: Role = Role::Client;
}

/// A role handler with a span around each callback.
pub struct Traced<H> {
    pub inner: H,
}

impl<H> Traced<H> {
    pub fn new(inner: H) -> Self {
        Self { inner }
    }
}

/// Times `f` and books it under `role` × `kind`.
#[inline]
fn span<R>(role: Role, kind: &'static str, f: impl FnOnce() -> R) -> R {
    let a0 = allocs();
    let t0 = Instant::now();
    let r = f();
    let nanos = t0.elapsed().as_nanos() as u64;
    let a1 = allocs();
    BOOK.with(|b| b.borrow_mut().add(role, kind, nanos, a1 - a0));
    r
}

impl<H: TracedRole> NodeHandler<DiscoveryMessage> for Traced<H> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        span(H::ROLE, "start", || self.inner.on_start(ctx));
    }

    fn on_shared_message(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        from: NodeId,
        msg: Rc<DiscoveryMessage>,
    ) {
        let kind = msg.kind();
        if H::ROLE == Role::Registry && kind == "query-retry" {
            let me = ctx.node();
            BOOK.with(|b| b.borrow_mut().retries_seen.push((from, me)));
        }
        span(H::ROLE, kind, || {
            self.inner.on_shared_message(ctx, from, msg)
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, timer: TimerId, tag: u64) {
        span(H::ROLE, "timer", || self.inner.on_timer(ctx, timer, tag));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn book_folds_spans_per_role_and_kind() {
        let mut b = Book::default();
        b.add(Role::Registry, "query", 10, 1);
        b.add(Role::Registry, "query", 5, 2);
        b.add(Role::Registry, "timer", 7, 0);
        b.add(Role::Client, "query-response", 3, 1);
        assert_eq!(
            b.get(Role::Registry, "query"),
            SpanTotal {
                calls: 2,
                nanos: 15,
                allocs: 3
            }
        );
        assert_eq!(b.get(Role::Service, "query"), SpanTotal::default());
        assert_eq!(
            b.role_total(Role::Registry),
            SpanTotal {
                calls: 3,
                nanos: 22,
                allocs: 3
            }
        );
        assert_eq!(b.spans().len(), 3);
    }
}
