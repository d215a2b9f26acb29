//! The PVFS-style metadata manager.
//!
//! PVFS keeps one manager process that owns file metadata (create, open,
//! layout description); data transfers never pass through it. CSAR keeps
//! that structure: the manager hands clients the layout and scheme, and
//! tracks the logical file size (updated by clients after writes, as
//! PVFS does on `close`/metadata update).

use crate::error::CsarError;
use crate::layout::Layout;
use crate::proto::Scheme;
use csar_store::{FromJson, Json, JsonError, ToJson};
use std::collections::BTreeMap;

/// Metadata of one CSAR file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// File handle (unique per manager).
    pub fh: u64,
    /// File name.
    pub name: String,
    /// Redundancy scheme the file was created with.
    pub scheme: Scheme,
    /// Striping/parity layout.
    pub layout: Layout,
    /// Logical size (max end-of-write reported so far).
    pub size: u64,
}

impl ToJson for FileMeta {
    fn to_json(&self) -> Json {
        Json::obj([
            ("fh", Json::from(self.fh)),
            ("name", Json::from(self.name.as_str())),
            ("scheme", self.scheme.to_json()),
            ("layout", self.layout.to_json()),
            ("size", Json::from(self.size)),
        ])
    }
}

impl FromJson for FileMeta {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(FileMeta {
            fh: j.u64_field("fh")?,
            name: j
                .field("name")?
                .as_str()
                .ok_or_else(|| JsonError("`name` must be a string".into()))?
                .to_string(),
            scheme: Scheme::from_json(j.field("scheme")?)?,
            layout: Layout::from_json(j.field("layout")?)?,
            size: j.u64_field("size")?,
        })
    }
}

/// Requests handled by the manager.
#[derive(Debug, Clone)]
pub enum MgrRequest {
    /// Create a file with the given scheme and layout.
    Create {
        /// File name (must be unused).
        name: String,
        /// Redundancy scheme.
        scheme: Scheme,
        /// Striping/parity layout.
        layout: Layout,
    },
    /// Look up a file by name.
    Open {
        /// File name.
        name: String,
    },
    /// Look up a file by handle.
    Stat {
        /// File handle.
        fh: u64,
    },
    /// Grow the recorded size to at least `size`.
    SetSize {
        /// File handle.
        fh: u64,
        /// New lower bound for the logical size.
        size: u64,
    },
    /// List all files.
    List,
    /// Remove a file by name.
    Remove {
        /// File name.
        name: String,
    },
}

/// Manager replies.
#[derive(Debug, Clone)]
pub enum MgrResponse {
    /// Metadata of the file in question.
    Meta(FileMeta),
    /// Metadata of every file.
    List(Vec<FileMeta>),
    /// The request succeeded with nothing to return.
    Ok,
    /// The request failed.
    Err(CsarError),
}

impl MgrResponse {
    /// Unwrap a `Meta` reply.
    pub fn into_meta(self) -> Result<FileMeta, CsarError> {
        match self {
            MgrResponse::Meta(m) => Ok(m),
            MgrResponse::Err(e) => Err(e),
            other => Err(CsarError::Protocol(format!("expected Meta reply, got {other:?}"))),
        }
    }

    /// Unwrap an `Ok` reply.
    pub fn into_ok(self) -> Result<(), CsarError> {
        match self {
            MgrResponse::Ok => Ok(()),
            MgrResponse::Err(e) => Err(e),
            other => Err(CsarError::Protocol(format!("expected Ok reply, got {other:?}"))),
        }
    }
}

/// The metadata manager state machine.
#[derive(Debug, Default)]
pub struct Manager {
    by_name: BTreeMap<String, FileMeta>,
    next_fh: u64,
}

impl Manager {
    /// An empty manager.
    pub fn new() -> Self {
        Self { by_name: BTreeMap::new(), next_fh: 1 }
    }

    /// Snapshot all metadata (persistence support).
    pub fn export(&self) -> Vec<FileMeta> {
        self.by_name.values().cloned().collect()
    }

    /// Rebuild a manager from snapshotted metadata. Handles are
    /// preserved; the allocator resumes past the highest one.
    pub fn import(metas: Vec<FileMeta>) -> Self {
        let next_fh = metas.iter().map(|m| m.fh).max().unwrap_or(0) + 1;
        Self { by_name: metas.into_iter().map(|m| (m.name.clone(), m)).collect(), next_fh }
    }

    /// Handle one request.
    pub fn handle(&mut self, req: MgrRequest) -> MgrResponse {
        match req {
            MgrRequest::Create { name, scheme, layout } => {
                if self.by_name.contains_key(&name) {
                    return MgrResponse::Err(CsarError::FileExists(name));
                }
                if let Err(e) = layout.check_scheme(scheme) {
                    return MgrResponse::Err(e);
                }
                let meta = FileMeta { fh: self.next_fh, name: name.clone(), scheme, layout, size: 0 };
                self.next_fh += 1;
                self.by_name.insert(name, meta.clone());
                MgrResponse::Meta(meta)
            }
            MgrRequest::Open { name } => match self.by_name.get(&name) {
                Some(m) => MgrResponse::Meta(m.clone()),
                None => MgrResponse::Err(CsarError::NoSuchFile(name)),
            },
            MgrRequest::Stat { fh } => match self.by_name.values().find(|m| m.fh == fh) {
                Some(m) => MgrResponse::Meta(m.clone()),
                None => MgrResponse::Err(CsarError::NoSuchHandle(fh)),
            },
            MgrRequest::SetSize { fh, size } => {
                match self.by_name.values_mut().find(|m| m.fh == fh) {
                    Some(m) => {
                        m.size = m.size.max(size);
                        MgrResponse::Ok
                    }
                    None => MgrResponse::Err(CsarError::NoSuchHandle(fh)),
                }
            }
            MgrRequest::List => MgrResponse::List(self.by_name.values().cloned().collect()),
            MgrRequest::Remove { name } => match self.by_name.remove(&name) {
                Some(_) => MgrResponse::Ok,
                None => MgrResponse::Err(CsarError::NoSuchFile(name)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout::new(4, 64)
    }

    #[test]
    fn create_open_stat_roundtrip() {
        let mut m = Manager::new();
        let meta = m
            .handle(MgrRequest::Create { name: "f".into(), scheme: Scheme::Hybrid, layout: layout() })
            .into_meta()
            .unwrap();
        assert_eq!(meta.size, 0);
        let opened = m.handle(MgrRequest::Open { name: "f".into() }).into_meta().unwrap();
        assert_eq!(opened, meta);
        let stat = m.handle(MgrRequest::Stat { fh: meta.fh }).into_meta().unwrap();
        assert_eq!(stat, meta);
    }

    #[test]
    fn duplicate_create_fails() {
        let mut m = Manager::new();
        m.handle(MgrRequest::Create { name: "f".into(), scheme: Scheme::Raid0, layout: layout() });
        let r = m.handle(MgrRequest::Create { name: "f".into(), scheme: Scheme::Raid0, layout: layout() });
        assert!(matches!(r, MgrResponse::Err(CsarError::FileExists(_))));
    }

    #[test]
    fn open_missing_fails() {
        let mut m = Manager::new();
        let r = m.handle(MgrRequest::Open { name: "nope".into() });
        assert!(matches!(r, MgrResponse::Err(CsarError::NoSuchFile(_))));
    }

    #[test]
    fn create_rejects_parity_on_single_server() {
        let mut m = Manager::new();
        let r = m.handle(MgrRequest::Create {
            name: "f".into(),
            scheme: Scheme::Raid5,
            layout: Layout::new(1, 64),
        });
        assert!(matches!(r, MgrResponse::Err(CsarError::InsufficientServers { .. })));
    }

    #[test]
    fn set_size_is_monotonic() {
        let mut m = Manager::new();
        let meta = m
            .handle(MgrRequest::Create { name: "f".into(), scheme: Scheme::Raid0, layout: layout() })
            .into_meta()
            .unwrap();
        m.handle(MgrRequest::SetSize { fh: meta.fh, size: 100 });
        m.handle(MgrRequest::SetSize { fh: meta.fh, size: 50 });
        let stat = m.handle(MgrRequest::Stat { fh: meta.fh }).into_meta().unwrap();
        assert_eq!(stat.size, 100);
    }

    #[test]
    fn list_and_remove() {
        let mut m = Manager::new();
        m.handle(MgrRequest::Create { name: "a".into(), scheme: Scheme::Raid0, layout: layout() });
        m.handle(MgrRequest::Create { name: "b".into(), scheme: Scheme::Raid1, layout: layout() });
        match m.handle(MgrRequest::List) {
            MgrResponse::List(files) => assert_eq!(files.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(m.handle(MgrRequest::Remove { name: "a".into() }), MgrResponse::Ok));
        assert!(matches!(
            m.handle(MgrRequest::Remove { name: "a".into() }),
            MgrResponse::Err(CsarError::NoSuchFile(_))
        ));
    }

    #[test]
    fn file_meta_json_roundtrip() {
        let meta = FileMeta {
            fh: u64::MAX - 1,
            name: "checkpoint \"41\"".into(),
            scheme: Scheme::Hybrid,
            layout: layout(),
            size: 1 << 40,
        };
        let text = meta.to_json().to_string();
        let back = FileMeta::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn handles_are_unique() {
        let mut m = Manager::new();
        let a = m
            .handle(MgrRequest::Create { name: "a".into(), scheme: Scheme::Raid0, layout: layout() })
            .into_meta()
            .unwrap();
        let b = m
            .handle(MgrRequest::Create { name: "b".into(), scheme: Scheme::Raid0, layout: layout() })
            .into_meta()
            .unwrap();
        assert_ne!(a.fh, b.fh);
    }
}
