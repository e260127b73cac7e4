//! Offline shim for `proptest`.
//!
//! A deterministic property-testing harness exposing the API subset the
//! workspace tests use: the [`Strategy`] trait with `prop_map` /
//! `prop_recursive` / `boxed`, `any::<T>()` for integers and bools,
//! range strategies, a small regex-subset string strategy (`"[a-z]{0,8}"`,
//! `"\\PC{0,12}"` and friends), `collection::vec`, tuple strategies,
//! [`Just`], `prop_oneof!`, and the `proptest!` / `prop_assert!` /
//! `prop_assert_eq!` macros.
//!
//! Differences from the real crate, deliberately accepted:
//! - no shrinking — failures report the case number and seed instead of a
//!   minimized input (generation is deterministic per test name + case,
//!   so failures reproduce exactly across runs);
//! - value trees are not kept; a strategy is just a seeded generator.

// ------------------------------------------------------------------ rng

/// Deterministic splitmix64 generator. Every test case derives its seed
/// from the test's module path + case index, so runs are reproducible.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn from_seed(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ------------------------------------------------------------- strategy

pub mod strategy {
    use super::TestRng;
    use std::rc::Rc;

    /// A seeded generator of values. The real crate's `Strategy` carries a
    /// value tree for shrinking; this shim's carries only generation.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Builds strategies for recursive data. `depth` bounds nesting;
        /// the desired-size and branch hints are accepted for signature
        /// compatibility but unused (depth alone bounds generation here).
        fn prop_recursive<S2, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> Recursive<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S2: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S2,
        {
            let mut levels = vec![self.boxed()];
            for _ in 0..depth {
                let deeper = recurse(levels.last().expect("at least base level").clone());
                levels.push(deeper.boxed());
            }
            Recursive { levels }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
        }
    }

    /// Type-erased strategy handle; clones share the underlying generator.
    pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> V>);

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (self.0)(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Depth-bounded recursive strategy: level 0 is the base case, level
    /// `i` may nest `i` levels deep. Generation picks a level uniformly.
    pub struct Recursive<V> {
        levels: Vec<BoxedStrategy<V>>,
    }

    impl<V> Strategy for Recursive<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.levels.len() as u64) as usize;
            self.levels[i].generate(rng)
        }
    }

    /// Uniform choice between type-erased alternatives (`prop_oneof!`).
    pub struct OneOf<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> OneOf<V> {
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { arms }
        }
    }

    impl<V> Strategy for OneOf<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    // Tuples of strategies generate tuples of values, left to right.
    macro_rules! tuple_strategy {
        ($($s:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A1);
    tuple_strategy!(A2, B2);
    tuple_strategy!(A3, B3, C3);
    tuple_strategy!(A4, B4, C4, D4);

    // Integer range strategies: `lo..hi` and `lo..=hi`.
    macro_rules! range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as i128;
                    let hi = self.end as i128;
                    assert!(lo < hi, "empty range strategy");
                    let span = (hi - lo) as u128;
                    (lo + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = *self.start() as i128;
                    let hi = *self.end() as i128;
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo + 1) as u128;
                    (lo + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )+};
    }

    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

// ------------------------------------------------------------ arbitrary

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    // Bias occasionally toward boundary values, which pure
                    // uniform sampling would essentially never produce.
                    if rng.chance(16) {
                        const EDGES: [i128; 5] =
                            [<$t>::MIN as i128, <$t>::MAX as i128, 0, 1, -1i128 as i128];
                        let e = EDGES[rng.below(EDGES.len() as u64) as usize];
                        if e >= <$t>::MIN as i128 && e <= <$t>::MAX as i128 {
                            return e as $t;
                        }
                    }
                    rng.next_u64() as $t
                }
            }
        )+};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

// ----------------------------------------------------- string (regex)

/// `&'static str` regex-subset strategies. Supported syntax: literal
/// characters, `[...]` classes with ranges, `\PC` (any non-control char),
/// and `{n}` / `{m,n}` repetition after an atom.
mod string {
    use super::strategy::Strategy;
    use super::TestRng;

    enum Atom {
        Lit(char),
        Class(Vec<char>),
        AnyPrintable,
    }

    struct Piece {
        atom: Atom,
        min: u32,
        max: u32,
    }

    fn parse(pattern: &str) -> Vec<Piece> {
        let mut chars = pattern.chars().peekable();
        let mut pieces = Vec::new();
        while let Some(c) = chars.next() {
            let atom = match c {
                '[' => {
                    let mut set = Vec::new();
                    let mut prev: Option<char> = None;
                    loop {
                        match chars.next() {
                            Some(']') => break,
                            Some('-') if prev.is_some() && chars.peek() != Some(&']') => {
                                let lo = prev.take().expect("range start");
                                let hi = chars.next().expect("range end");
                                for cp in lo as u32..=hi as u32 {
                                    if let Some(ch) = char::from_u32(cp) {
                                        set.push(ch);
                                    }
                                }
                            }
                            Some(ch) => {
                                if let Some(p) = prev.take() {
                                    set.push(p);
                                }
                                prev = Some(ch);
                            }
                            None => panic!("unterminated class in pattern {pattern:?}"),
                        }
                    }
                    if let Some(p) = prev {
                        set.push(p);
                    }
                    assert!(!set.is_empty(), "empty class in pattern {pattern:?}");
                    Atom::Class(set)
                }
                '\\' => match chars.next() {
                    Some('P') => {
                        let cat = chars.next();
                        assert_eq!(cat, Some('C'), "only \\PC is supported, got \\P{cat:?}");
                        Atom::AnyPrintable
                    }
                    Some(esc) => Atom::Lit(esc),
                    None => panic!("dangling escape in pattern {pattern:?}"),
                },
                other => Atom::Lit(other),
            };
            let (min, max) = if chars.peek() == Some(&'{') {
                chars.next();
                let mut spec = String::new();
                for ch in chars.by_ref() {
                    if ch == '}' {
                        break;
                    }
                    spec.push(ch);
                }
                match spec.split_once(',') {
                    Some((m, n)) => (
                        m.parse().expect("repeat lower bound"),
                        n.parse().expect("repeat upper bound"),
                    ),
                    None => {
                        let n = spec.parse().expect("repeat count");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            pieces.push(Piece { atom, min, max });
        }
        pieces
    }

    fn printable(rng: &mut TestRng) -> char {
        // Mix plain ASCII with multi-byte scalars so UTF-8 handling is
        // genuinely exercised; every range below is control-free.
        match rng.below(10) {
            0..=5 => char::from_u32(0x20 + rng.below(0x5f) as u32).expect("ascii printable"),
            6 | 7 => char::from_u32(0xa1 + rng.below(0x2ff) as u32).unwrap_or('é'),
            8 => char::from_u32(0x4e00 + rng.below(0x500) as u32).unwrap_or('中'),
            _ => char::from_u32(0x1f300 + rng.below(0xff) as u32).unwrap_or('✨'),
        }
    }

    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for piece in parse(self) {
                let n = piece.min + rng.below((piece.max - piece.min + 1) as u64) as u32;
                for _ in 0..n {
                    match &piece.atom {
                        Atom::Lit(c) => out.push(*c),
                        Atom::Class(set) => out.push(set[rng.below(set.len() as u64) as usize]),
                        Atom::AnyPrintable => out.push(printable(rng)),
                    }
                }
            }
            out
        }
    }
}

// ----------------------------------------------------------- collection

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// A strategy for vectors whose length is uniform in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------- test_runner

pub mod test_runner {
    use super::strategy::Strategy;
    use super::{fnv1a, TestRng};
    use std::fmt;

    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        /// 256 cases, or `PROPTEST_CASES` from the environment as in the
        /// real crate (`with_cases` is not affected).
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(256);
            ProptestConfig { cases }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        Fail(String),
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }

    /// Drives `config.cases` deterministic cases of `test` over values from
    /// `strategy`. Panics (failing the surrounding `#[test]`) on the first
    /// `TestCaseError::Fail`; `Reject` skips the case.
    pub fn run_cases<S, F>(config: &ProptestConfig, name: &str, strategy: &S, mut test: F)
    where
        S: Strategy,
        F: FnMut(S::Value) -> Result<(), TestCaseError>,
    {
        let base = fnv1a(name.as_bytes());
        for case in 0..config.cases {
            let seed = base ^ (case as u64).wrapping_mul(0xa076_1d64_78bd_642f);
            let mut rng = TestRng::from_seed(seed);
            let value = strategy.generate(&mut rng);
            match test(value) {
                Ok(()) => {}
                Err(TestCaseError::Reject(_)) => {}
                Err(TestCaseError::Fail(msg)) => panic!(
                    "proptest {name}: case {case}/{} failed (seed {seed:#x}): {msg}",
                    config.cases
                ),
            }
        }
    }
}

// -------------------------------------------------------------- macros

/// Declares deterministic property tests. Supports the
/// `#![proptest_config(...)]` inner attribute and any number of
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])+
      fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])+
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let __strategy = ($($strat,)+);
            $crate::test_runner::run_cases(
                &__config,
                concat!(module_path!(), "::", stringify!($name)),
                &__strategy,
                |($($arg,)+)| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                },
            );
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Fails the current case (without panicking the whole run machinery).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return Err($crate::test_runner::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($left),
                " == ",
                stringify!($right)
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} == {}: {}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+)
            )));
        }
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

// ---------------------------------------------------------------- tests

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_seed(7);
        for _ in 0..2000 {
            let v = (-3i64..4).generate(&mut rng);
            assert!((-3..4).contains(&v));
            let w = (1u32..=64).generate(&mut rng);
            assert!((1..=64).contains(&w));
        }
    }

    #[test]
    fn regex_subset_shapes() {
        let mut rng = TestRng::from_seed(11);
        for _ in 0..500 {
            let s = "[a-z]{0,8}".generate(&mut rng);
            assert!(s.len() <= 8);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));

            let t = "[a-z][a-z0-9_]{0,6}".generate(&mut rng);
            assert!(!t.is_empty() && t.chars().count() <= 7);
            assert!(t.chars().next().expect("head").is_ascii_lowercase());

            let p = "\\PC{0,12}".generate(&mut rng);
            assert!(p.chars().count() <= 12);
            assert!(p.chars().all(|c| !c.is_control()));
        }
    }

    #[test]
    fn oneof_and_recursion_respect_depth() {
        fn arb() -> impl Strategy<Value = String> {
            let leaf = prop_oneof![Just("x".to_string()), Just("y".to_string())];
            leaf.prop_recursive(3, 16, 2, |inner| {
                (inner.clone(), inner).prop_map(|(l, r)| format!("({l} {r})"))
            })
        }
        let mut rng = TestRng::from_seed(3);
        let mut seen_nested = false;
        for _ in 0..200 {
            let s = arb().generate(&mut rng);
            let depth = s.chars().filter(|c| *c == '(').count();
            assert!(depth <= 7, "depth 3 binary nesting gives at most 7 opens");
            seen_nested |= depth > 0;
        }
        assert!(seen_nested);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = |seed| {
            let mut rng = TestRng::from_seed(seed);
            crate::collection::vec(any::<u64>(), 0..50).generate(&mut rng)
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(43));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_plumbing_works(v in any::<u64>(), s in "[a-z]{1,4}") {
            prop_assert!(s.len() <= 4, "len was {}", s.len());
            prop_assert_eq!(v.wrapping_add(0), v);
            if s.is_empty() { return Ok(()); }
        }
    }
}
