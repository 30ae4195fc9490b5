//! FNV-1a, the checksum of every persisted format in the workspace: the
//! `CFPA` v2 array files, `CFPI` v2 mining images, `cfp-ckpt/1`
//! manifests and `cfp-blackbox/2` post-mortems. It sits here, at the
//! bottom of the crate graph, so all of them share one copy.
//!
//! The two JSON formats share one envelope too: [`seal`] appends a
//! `checksum` member, `"fnv1a:"` and 16 hex digits of FNV-1a over the
//! compact serialisation of the object's other members, and [`verify`]
//! recomputes it.

use crate::json::Json;

/// The 64-bit FNV-1a offset basis: the hash of no bytes, and the seed of
/// a fresh [`fnv1a`] chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues the 64-bit FNV-1a `hash` over `bytes`. Calls chain:
/// `fnv1a(fnv1a(FNV_OFFSET, a), b)` is the hash of `a` followed by `b`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

fn checksum(body: &Json) -> String {
    format!("fnv1a:{:016x}", fnv1a(FNV_OFFSET, body.to_compact().as_bytes()))
}

/// Appends a `checksum` member to the object `body` (see the module
/// docs).
///
/// # Panics
///
/// Panics when `body` is not an object.
pub fn seal(body: Json) -> Json {
    let sum = checksum(&body);
    let Json::Obj(mut members) = body else { panic!("only a JSON object can be sealed") };
    members.push(("checksum".into(), Json::Str(sum)));
    Json::Obj(members)
}

/// Checks a document written by [`seal`]: its root is an object whose
/// `checksum` member matches the object's other members. The error says
/// which of these failed.
pub fn verify(doc: &Json) -> Result<(), String> {
    let Json::Obj(members) = doc else { return Err("root is not an object".into()) };
    let stored = doc.get("checksum").and_then(Json::as_str).ok_or("missing checksum member")?;
    let body = Json::Obj(members.iter().filter(|(k, _)| k != "checksum").cloned().collect());
    let computed = checksum(&body);
    if stored != computed {
        return Err(format!("checksum mismatch: stored {stored}, computed {computed}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_documents_verify_and_edits_do_not() {
        let doc = seal(Json::Obj(vec![("n".into(), Json::u64(7))]));
        assert_eq!(doc.to_compact(), r#"{"n":7,"checksum":"fnv1a:0c70d5734a041162"}"#);
        assert_eq!(verify(&doc), Ok(()));
        let edited = crate::json::parse(&doc.to_compact().replace(r#""n":7"#, r#""n":8"#)).unwrap();
        assert!(verify(&edited).unwrap_err().contains("checksum mismatch"));
        let unsealed = Json::Obj(vec![("n".into(), Json::u64(7))]);
        assert!(verify(&unsealed).unwrap_err().contains("missing checksum"));
        assert!(verify(&Json::u64(7)).unwrap_err().contains("not an object"));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"a"), b"b"), fnv1a(FNV_OFFSET, b"ab"));
    }
}
