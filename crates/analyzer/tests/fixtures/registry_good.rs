//! Fixture: ColumnCodec values and the ENTRIES block in perfect 1:1 sync —
//! two unit-struct impls plus two instances of one shared adapter type.

pub struct Alpha;
impl ColumnCodec for Alpha {}
pub struct Beta;
impl ColumnCodec for Beta {}
pub struct Adapter {
    id: &'static str,
}
pub static GAMMA: Adapter = Adapter { id: "gamma" };
pub(crate) const DELTA: Adapter = Adapter { id: "delta" };
impl ColumnCodec for Adapter {}

static ENTRIES: &[&'static dyn ColumnCodec] = &[
    &impls::Alpha,
    &Beta,
    &impls::GAMMA,
    &DELTA,
];
