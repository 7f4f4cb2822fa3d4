//! Message size accounting.
//!
//! CONGEST limits messages to `O(log n)` bits, so the executor needs every
//! message type to report its wire size. [`WireSize`] is a structural
//! estimate (sum of the fields' widths) — honest enough to distinguish a
//! `(id, distance)` pair from a gathered ball of the topology.

/// Size of a value on the wire, in bits.
///
/// # Example
/// ```
/// use locality_sim::wire::WireSize;
/// assert_eq!(42u32.wire_bits(), 32);
/// assert_eq!(Some(1u8).wire_bits(), 9); // 1 tag bit + payload
/// assert_eq!(vec![1u16, 2, 3].wire_bits(), 64 + 48); // length word + items
/// ```
pub trait WireSize {
    /// Number of bits this value occupies in a message.
    fn wire_bits(&self) -> u64;
}

macro_rules! impl_wire_for_prim {
    ($($t:ty => $bits:expr),* $(,)?) => {
        $(impl WireSize for $t {
            fn wire_bits(&self) -> u64 { $bits }
        })*
    };
}

impl_wire_for_prim! {
    bool => 1,
    u8 => 8, i8 => 8,
    u16 => 16, i16 => 16,
    u32 => 32, i32 => 32,
    u64 => 64, i64 => 64,
    usize => 64, isize => 64,
    f64 => 64, f32 => 32,
    () => 0,
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_bits(&self) -> u64 {
        1 + self.as_ref().map_or(0, WireSize::wire_bits)
    }
}

impl<T: WireSize, E: WireSize> WireSize for Result<T, E> {
    fn wire_bits(&self) -> u64 {
        1 + match self {
            Ok(v) => v.wire_bits(),
            Err(e) => e.wire_bits(),
        }
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_bits(&self) -> u64 {
        64 + self.iter().map(WireSize::wire_bits).sum::<u64>()
    }
}

impl<T: WireSize> WireSize for Box<T> {
    fn wire_bits(&self) -> u64 {
        self.as_ref().wire_bits()
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_bits(&self) -> u64 {
        self.0.wire_bits() + self.1.wire_bits()
    }
}

impl<A: WireSize, B: WireSize, C: WireSize> WireSize for (A, B, C) {
    fn wire_bits(&self) -> u64 {
        self.0.wire_bits() + self.1.wire_bits() + self.2.wire_bits()
    }
}

impl<A: WireSize, B: WireSize, C: WireSize, D: WireSize> WireSize for (A, B, C, D) {
    fn wire_bits(&self) -> u64 {
        self.0.wire_bits() + self.1.wire_bits() + self.2.wire_bits() + self.3.wire_bits()
    }
}

/// A compact integer that charges only `width` bits on the wire — used by
/// CONGEST protocols whose payloads are ids or distances of `Θ(log n)` bits
/// rather than full machine words.
///
/// # Example
/// ```
/// use locality_sim::wire::{Compact, WireSize};
/// let id = Compact::new(300, 10);
/// assert_eq!(id.wire_bits(), 10);
/// assert_eq!(id.value(), 300);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Compact {
    value: u64,
    width: u16,
}

impl Compact {
    /// Wrap `value`, charging `width` bits.
    ///
    /// # Panics
    /// Panics if `value` does not fit in `width` bits.
    pub fn new(value: u64, width: u16) -> Self {
        assert!(
            width >= 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        Self { value, width }
    }

    /// The wrapped value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The declared width.
    pub fn width(&self) -> u16 {
        self.width
    }
}

impl WireSize for Compact {
    fn wire_bits(&self) -> u64 {
        self.width as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives() {
        assert_eq!(true.wire_bits(), 1);
        assert_eq!(0u64.wire_bits(), 64);
        assert_eq!(().wire_bits(), 0);
    }

    #[test]
    fn options_and_results() {
        assert_eq!(None::<u32>.wire_bits(), 1);
        assert_eq!(Some(0u32).wire_bits(), 33);
        assert_eq!(Ok::<u8, u64>(1).wire_bits(), 9);
        assert_eq!(Err::<u8, u64>(1).wire_bits(), 65);
    }

    #[test]
    fn collections_and_tuples() {
        assert_eq!(Vec::<bool>::new().wire_bits(), 64);
        assert_eq!(vec![true, false].wire_bits(), 66);
        assert_eq!((1u8, 2u8).wire_bits(), 16);
        assert_eq!((1u8, 2u8, true).wire_bits(), 17);
        assert_eq!((1u8, 2u8, true, 0u16).wire_bits(), 33);
        assert_eq!(Box::new(5u32).wire_bits(), 32);
    }

    #[test]
    fn compact_width_checked() {
        assert_eq!(Compact::new(7, 3).wire_bits(), 3);
        assert_eq!(Compact::new(u64::MAX, 64).wire_bits(), 64);
    }

    #[test]
    #[should_panic]
    fn compact_overflow_panics() {
        let _ = Compact::new(8, 3);
    }
}
