//! The `key=value` tokenizer behind [`FaultSpec::parse`] and
//! [`ChaosSpec::parse`].
//!
//! [`FaultSpec::parse`]: crate::faults::FaultSpec::parse
//! [`ChaosSpec::parse`]: crate::chaos::ChaosSpec::parse

/// A tokenized spec string.
#[derive(Debug, PartialEq)]
pub(crate) enum Tokens<'a, T> {
    /// The whole string named one of the presets.
    Preset(T),
    /// Comma-separated `(key, value)` pairs in input order, both trimmed;
    /// every key is one of the allowed keys and appears once.
    Pairs(Vec<(&'a str, &'a str)>),
}

/// Splits `text` into a preset from `presets` or `key=value` pairs over
/// `keys`. The caller parses the values.
///
/// # Errors
///
/// A human-readable detail on an empty string, a pair without `=`, a key
/// outside `keys`, or a key given twice (which value was meant is
/// ambiguous, so neither wins).
pub(crate) fn tokenize<'a, T: Copy>(
    text: &'a str,
    presets: &[(&str, T)],
    keys: &[&str],
) -> Result<Tokens<'a, T>, String> {
    let trimmed = text.trim();
    if let Some(&(_, preset)) = presets.iter().find(|(name, _)| *name == trimmed) {
        return Ok(Tokens::Preset(preset));
    }
    let keys_help = keys.join(", ");
    if trimmed.is_empty() {
        let names: Vec<String> = presets.iter().map(|(n, _)| format!("'{n}'")).collect();
        return Err(format!(
            "empty spec (try {} or key=value)",
            names.join(", ")
        ));
    }
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    for pair in trimmed.split(',') {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!(
                "expected key=value, got '{pair}' (keys: {keys_help})"
            ));
        };
        let key = key.trim();
        if !keys.contains(&key) {
            return Err(format!("unknown key '{key}' (keys: {keys_help})"));
        }
        if pairs.iter().any(|&(seen, _)| seen == key) {
            return Err(format!("duplicate key '{key}'"));
        }
        pairs.push((key, value.trim()));
    }
    Ok(Tokens::Pairs(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PRESETS: &[(&str, u8)] = &[("none", 0), ("heavy", 2)];
    const KEYS: &[&str] = &["a", "b"];

    #[test]
    fn presets_and_pairs_tokenize() {
        assert_eq!(tokenize(" heavy ", PRESETS, KEYS), Ok(Tokens::Preset(2)));
        assert_eq!(
            tokenize(" b = 1 ,a=x", PRESETS, KEYS),
            Ok(Tokens::Pairs(vec![("b", "1"), ("a", "x")]))
        );
    }

    #[test]
    fn malformed_strings_are_rejected() {
        for bad in ["", "  ", "a", "a=1,", "c=1", "a=1,b=2,a=3", "a=1,a=1"] {
            assert!(tokenize(bad, PRESETS, KEYS).is_err(), "{bad:?}");
        }
        let dup = tokenize("a=1,a=2", PRESETS, KEYS).unwrap_err();
        assert!(dup.contains("duplicate key 'a'"), "{dup}");
    }
}
