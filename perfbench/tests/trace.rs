//! Span self time on nested spans.

use perfbench::trace::{self_times, Span, Tracer};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_covered_child_time_once() {
    let spans = [
        span("request", 0, 100, None),
        span("decode", 10, 30, Some(0)),
        // Overlaps `decode` by 10 ns: the overlap counts once.
        span("solve", 20, 50, Some(0)),
        span("encode", 60, 70, Some(0)),
        // A grandchild: it reduces `solve`, not `request`.
        span("probe", 25, 35, Some(2)),
    ];
    assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30 - 10, 10, 10]);
}

#[test]
fn children_outside_the_parent_do_not_count() {
    let spans = [
        span("outer", 100, 200, None),
        span("late", 150, 400, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![50, 250]);
}

#[test]
fn a_leaf_is_all_self_time() {
    assert_eq!(self_times(&[span("leaf", 5, 9, None)]), vec![4]);
}

#[test]
fn begin_and_end_nest_and_merge_reindexes_parents() {
    let mut t = Tracer::new(true);
    let outer = t.begin("outer", 1);
    let inner = t.begin("inner", 1);
    std::thread::sleep(std::time::Duration::from_millis(2));
    t.end(inner);
    t.end(outer);
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    let own = t.self_times();
    assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());

    let mut other = t.fork();
    let a = other.begin("a", 2);
    let b = other.begin("b", 2);
    other.end(b);
    other.end(a);
    t.merge(other);
    assert_eq!(t.spans()[3].parent, Some(2), "merged parent indices shift");
    let names: Vec<_> = t.summary().into_iter().map(|s| (s.name, s.count)).collect();
    assert_eq!(names, vec![("a", 1), ("b", 1), ("inner", 1), ("outer", 1)]);
}

#[test]
fn a_disabled_tracer_records_nothing() {
    let mut t = Tracer::new(false);
    let id = t.begin("x", 0);
    t.end(id);
    t.record("y", 0, std::time::Instant::now(), std::time::Instant::now());
    assert!(id.is_none());
    assert!(t.spans().is_empty());
}
