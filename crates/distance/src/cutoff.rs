//! Pruning thresholds for the `_bounded` kernels.
//!
//! The early-exit kernels compare their running partial sum against a
//! pruning threshold after every accumulation step. [`Cutoff`] is that
//! threshold: a constant captured at call time, which the normalised
//! bounds rescale into raw accumulation space with [`Cutoff::scaled`].

use std::marker::PhantomData;

/// A pruning threshold for the `_bounded` kernels: a constant captured at
/// call time. Construct with [`Cutoff::constant`] or `From<f64>`.
///
/// The kernels call [`Cutoff::current`] once per accumulation step. The
/// lifetime parameter carries no borrow; it is kept so existing
/// `Cutoff<'_>` spellings still name the type.
#[derive(Debug, Clone, Copy)]
pub struct Cutoff<'a> {
    value: f64,
    _lifetime: PhantomData<&'a ()>,
}

impl Cutoff<'_> {
    /// A fixed threshold — the classic `cutoff: f64` contract.
    #[inline]
    pub fn constant(value: f64) -> Self {
        Cutoff {
            value,
            _lifetime: PhantomData,
        }
    }

    /// The threshold to compare a partial sum against.
    #[inline]
    pub fn current(&self) -> f64 {
        self.value
    }

    /// This cutoff rescaled into another accumulation's space: the
    /// normalised bounds compare raw partial sums against
    /// `cutoff * denom`. `factor` must be positive (the normalised kernels
    /// return early on non-positive denominators).
    #[inline]
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Cutoff::constant(self.value * factor)
    }
}

impl From<f64> for Cutoff<'static> {
    #[inline]
    fn from(value: f64) -> Self {
        Cutoff::constant(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_cutoff_is_a_constant() {
        let c = Cutoff::constant(3.5);
        assert_eq!(c.current(), 3.5);
        assert_eq!(c.scaled(2.0).current(), 7.0);
        assert_eq!(Cutoff::from(f64::INFINITY).current(), f64::INFINITY);
        assert_eq!(
            Cutoff::constant(f64::INFINITY).scaled(4.0).current(),
            f64::INFINITY
        );
    }
}
