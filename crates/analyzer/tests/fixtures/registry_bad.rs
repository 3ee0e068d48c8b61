//! Fixture: drift between ColumnCodec values and the ENTRIES block.

pub struct Alpha;
impl ColumnCodec for Alpha {}
pub struct Beta;
impl ColumnCodec for Beta {}
pub struct Adapter {
    id: &'static str,
}
pub static GAMMA: Adapter = Adapter { id: "gamma" };
pub static DELTA: Adapter = Adapter { id: "delta" };
impl ColumnCodec for Adapter {}

static ENTRIES: &[&'static dyn ColumnCodec] = &[
    &impls::Alpha,
    &impls::Alpha,
    &impls::Ghost,
    &impls::GAMMA,
    &impls::Adapter,
];
