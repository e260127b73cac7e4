//! `feisu-storage`: one block read, one block write.

use super::At;
use bytes::Bytes;
use feisu_common::{NodeId, Result};
use feisu_core::engine::FeisuCluster;
use feisu_storage::auth::Credential;

/// Reads a block straight from its storage domain, as `reader`. It goes
/// around the block cache on purpose: a probe must not count as a
/// sighting, or the traced cluster's cache would fill differently from
/// the engine's. Work = bytes.
pub fn read(at: At<'_>, cluster: &FeisuCluster, path: &str, reader: NodeId) -> Result<Bytes> {
    let (domain, inner) = cluster.router().resolve(path);
    let read = at.time(
        "storage.read",
        || domain.read_from(&inner, reader),
        |r| r.as_ref().map_or(0, |r| r.data.len() as u64),
    )?;
    Ok(read.data)
}

/// Writes `bytes` to a scratch object next to `location`, through the
/// router (authorization, domain put, cache invalidation). Work = bytes.
pub fn write(
    at: At<'_>,
    cluster: &FeisuCluster,
    location: &str,
    bytes: Vec<u8>,
    near: Option<NodeId>,
    cred: &Credential,
) -> Result<()> {
    let path = format!("{location}/.probe");
    let len = bytes.len() as u64;
    at.time(
        "storage.write",
        || {
            cluster
                .router()
                .write(&path, bytes.into(), near, cred, cluster.now())
        },
        |_| len,
    )
}
