//! The comparison distance functions of Table I: DTW, LCSS, ERP, EDR,
//! DISSIM and MA.
//!
//! Each baseline is implemented from its original paper's definition (see
//! the per-module docs) and exposed both as a free function and through the
//! [`crate::TrajDistance`] trait, so a ranking can swap any of them in for
//! EDwP uniformly. The threshold-dependent techniques (LCSS, EDR, MA)
//! take their thresholds explicitly — the paper's Sec. II argues this
//! dependency is precisely their weakness under sampling noise.

mod dissim;
mod dtw;
mod edr;
mod erp;
mod lcss;
mod ma;

pub use dissim::{dissim, DissimDistance};
pub use dtw::{dtw, DtwDistance};
pub use edr::{edr, EdrDistance};
pub use erp::{erp, ErpDistance};
pub use lcss::{lcss, lcss_distance, LcssDistance};
pub use ma::{ma, MaDistance, MaParams};
