//! Item recognition over token trees: functions, structs, enums, and the
//! `#[cfg(test)]` gating the rules use to exempt test code.
//!
//! This is deliberately *AST-lite*: it recognizes exactly the item shapes
//! the rules need (fn bodies to walk, struct fields to index, enum variants
//! to enumerate) and treats everything else as opaque token soup. Nested
//! modules, `impl`/`trait` blocks, and cfg-gated items all work; exotic
//! shapes (macros defining items, nested fns) degrade to "not indexed",
//! never to a panic.

use super::tree::{flat, Tree};

/// A recognized `fn` with its body group.
#[derive(Debug)]
pub struct FnItem<'a> {
    /// Function name.
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// Body group children (absent for trait method declarations).
    pub body: Option<&'a [Tree]>,
    /// Whether the fn lives under `#[cfg(test)]` (directly or via an
    /// enclosing module/impl).
    pub in_test: bool,
}

/// One named struct field.
#[derive(Debug, Clone)]
pub struct StructField {
    /// Field name.
    pub name: String,
    /// Flattened type text, e.g. `HashMap < ClientId , ClientState >`.
    pub ty: String,
}

/// A recognized `struct` with named fields.
#[derive(Debug)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// 0-based line of the `struct` keyword.
    pub line: usize,
    /// Named fields (empty for tuple/unit structs).
    pub fields: Vec<StructField>,
}

/// A recognized `enum`.
#[derive(Debug)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// Variants as (0-based declaration line, name).
    pub variants: Vec<(usize, String)>,
}

/// Everything [`collect_items`] found in one file.
#[derive(Debug, Default)]
pub struct Items<'a> {
    /// All functions, including nested in impl/mod blocks.
    pub fns: Vec<FnItem<'a>>,
    /// All structs with named fields.
    pub structs: Vec<StructItem>,
    /// All enums.
    pub enums: Vec<EnumItem>,
}

impl<'a> Items<'a> {
    /// The first fn with this name, if any.
    pub fn find_fn(&self, name: &str) -> Option<&FnItem<'a>> {
        self.fns.iter().find(|f| f.name == name)
    }
}

/// Whether an attribute group (`[...]` after `#`) gates on `test`.
fn attr_is_test(children: &[Tree]) -> bool {
    let t = flat(children);
    t.starts_with("cfg") && t.contains("test")
}

/// Walks trees collecting items. `in_test` marks an enclosing
/// `#[cfg(test)]` scope.
pub fn collect_items<'a>(trees: &'a [Tree], in_test: bool, out: &mut Items<'a>) {
    let mut i = 0;
    // Pending `#[cfg(test)]` attribute awaiting its item.
    let mut pending_test = false;
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(tok) if tok.text == "#" => {
                if let Some(Tree::Group {
                    delim: '[',
                    children,
                    ..
                }) = trees.get(i + 1)
                {
                    if attr_is_test(children) {
                        pending_test = true;
                    }
                    i += 2;
                    continue;
                }
                i += 1;
            }
            Tree::Leaf(tok) if tok.text == ";" => {
                // An item ended without a body (`use`, `mod x;`, consts):
                // a pending attribute gated only that item.
                pending_test = false;
                i += 1;
            }
            Tree::Leaf(tok) if tok.text == "fn" => {
                let line = tok.line;
                let name = trees
                    .get(i + 1)
                    .and_then(Tree::leaf)
                    .unwrap_or("")
                    .to_string();
                // Scan forward for the body group, stopping at a `;` (trait
                // method declaration) or the next item.
                let mut body = None;
                let mut j = i + 2;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group {
                            delim: '{',
                            children,
                            ..
                        } => {
                            body = Some(children.as_slice());
                            break;
                        }
                        Tree::Leaf(t) if t.text == ";" => break,
                        _ => {}
                    }
                    j += 1;
                }
                out.fns.push(FnItem {
                    name,
                    line,
                    body,
                    in_test: in_test || pending_test,
                });
                pending_test = false;
                i = j + 1;
            }
            Tree::Leaf(tok) if tok.text == "struct" => {
                let line = tok.line;
                let name = trees
                    .get(i + 1)
                    .and_then(Tree::leaf)
                    .unwrap_or("")
                    .to_string();
                let mut fields = Vec::new();
                let mut j = i + 2;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group {
                            delim: '{',
                            children,
                            ..
                        } => {
                            fields = parse_fields(children);
                            break;
                        }
                        // Tuple struct `(…)` or unit struct `;`: no named
                        // fields to index.
                        Tree::Group { delim: '(', .. } => break,
                        Tree::Leaf(t) if t.text == ";" => break,
                        _ => {}
                    }
                    j += 1;
                }
                out.structs.push(StructItem { name, line, fields });
                pending_test = false;
                i = j + 1;
            }
            Tree::Leaf(tok) if tok.text == "enum" => {
                let name = trees
                    .get(i + 1)
                    .and_then(Tree::leaf)
                    .unwrap_or("")
                    .to_string();
                let mut variants = Vec::new();
                let mut j = i + 2;
                while j < trees.len() {
                    if let Tree::Group {
                        delim: '{',
                        children,
                        ..
                    } = &trees[j]
                    {
                        variants = parse_variants(children);
                        break;
                    }
                    if trees[j].is(";") {
                        break;
                    }
                    j += 1;
                }
                out.enums.push(EnumItem { name, variants });
                pending_test = false;
                i = j + 1;
            }
            Tree::Leaf(tok) if tok.text == "mod" || tok.text == "impl" || tok.text == "trait" => {
                // Recurse into the first brace group of the item, carrying
                // test-gating down.
                let gated = in_test || pending_test;
                pending_test = false;
                let mut j = i + 1;
                while j < trees.len() {
                    if let Tree::Group {
                        delim: '{',
                        children,
                        ..
                    } = &trees[j]
                    {
                        collect_items(children, gated, out);
                        break;
                    }
                    if trees[j].is(";") {
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
            }
            _ => i += 1,
        }
    }
}

/// Parses named struct fields: `vis? name : type ,` sequences, splitting on
/// commas at zero angle-bracket depth so generic types survive intact.
fn parse_fields(children: &[Tree]) -> Vec<StructField> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < children.len() {
        // Skip field attributes and doc comments (already stripped).
        while matches!(children.get(i), Some(Tree::Leaf(t)) if t.text == "#") {
            i += 1;
            if matches!(children.get(i), Some(Tree::Group { delim: '[', .. })) {
                i += 1;
            }
        }
        // Skip visibility.
        if matches!(children.get(i), Some(Tree::Leaf(t)) if t.text == "pub") {
            i += 1;
            if matches!(children.get(i), Some(Tree::Group { delim: '(', .. })) {
                i += 1;
            }
        }
        let Some(name) = children.get(i).and_then(Tree::leaf) else {
            i += 1;
            continue;
        };
        let name = name.to_string();
        if !matches!(children.get(i + 1), Some(t) if t.is(":")) {
            i += 1;
            continue;
        }
        // Collect type trees until a comma at angle depth 0.
        let mut ty_trees: Vec<Tree> = Vec::new();
        let mut depth = 0i64;
        let mut j = i + 2;
        while j < children.len() {
            match children[j].leaf() {
                Some("<") => depth += 1,
                Some(">") => depth -= 1,
                Some(",") if depth <= 0 => break,
                _ => {}
            }
            ty_trees.push(children[j].clone());
            j += 1;
        }
        fields.push(StructField {
            name,
            ty: flat(&ty_trees),
        });
        i = j + 1;
    }
    fields
}

/// Parses enum variant names: the first identifier of each comma-separated
/// variant at depth 0 (payload groups and discriminants skipped).
fn parse_variants(children: &[Tree]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut at_start = true;
    let mut i = 0;
    while i < children.len() {
        match &children[i] {
            Tree::Leaf(t) if t.text == "#" => {
                i += 1;
                if matches!(children.get(i), Some(Tree::Group { delim: '[', .. })) {
                    i += 1;
                }
                continue;
            }
            Tree::Leaf(t) if t.text == "," => {
                at_start = true;
                i += 1;
            }
            Tree::Leaf(t) if at_start && t.ident => {
                out.push((t.line, t.text.clone()));
                at_start = false;
                i += 1;
            }
            _ => {
                at_start = false;
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::tree::parse;
    use crate::lint::tokenize;

    fn items_of(src: &str) -> (Vec<Tree>, String) {
        (parse(&tokenize(src)), String::new())
    }

    #[test]
    fn fns_structs_enums_recognized() {
        let (trees, _) = items_of(
            "struct S { pub a: u64, b: HashMap<K, V> }\n\
             enum E { X, Y(u8), Z { q: u8 } }\n\
             impl S { fn m(&self) -> u8 { 0 } }\n\
             fn free(x: u8) { g(x); }\n",
        );
        let mut items = Items::default();
        collect_items(&trees, false, &mut items);
        assert_eq!(items.structs.len(), 1);
        let s = &items.structs[0];
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "a");
        assert_eq!(s.fields[0].ty, "u64");
        assert_eq!(s.fields[1].ty, "HashMap < K , V >");
        assert_eq!(items.enums[0].variants.len(), 3);
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["m", "free"]);
        assert!(items.find_fn("m").unwrap().body.is_some());
    }

    #[test]
    fn generic_field_types_survive_commas() {
        let (trees, _) = items_of("struct S { m: HashMap<u64, Vec<(u8, u8)>>, n: u32 }\n");
        let mut items = Items::default();
        collect_items(&trees, false, &mut items);
        let s = &items.structs[0];
        assert_eq!(s.fields.len(), 2, "{:?}", s.fields);
        assert_eq!(s.fields[1].name, "n");
    }

    #[test]
    fn cfg_test_gates_fns_and_modules() {
        let (trees, _) = items_of(
            "fn prod() {}\n\
             #[cfg(test)]\n\
             mod tests {\n    fn t() {}\n}\n\
             #[cfg(test)]\n\
             fn helper() {}\n\
             fn after() {}\n",
        );
        let mut items = Items::default();
        collect_items(&trees, false, &mut items);
        let by_name = |n: &str| items.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("prod").in_test);
        assert!(by_name("t").in_test);
        assert!(by_name("helper").in_test);
        assert!(!by_name("after").in_test);
    }

    #[test]
    fn cfg_test_on_use_does_not_leak() {
        let (trees, _) = items_of("#[cfg(test)]\nuse foo::bar;\nfn prod() {}\n");
        let mut items = Items::default();
        collect_items(&trees, false, &mut items);
        assert!(!items.fns[0].in_test, "attribute gated only the use item");
    }

    #[test]
    fn trait_default_methods_are_walked() {
        let (trees, _) = items_of("trait T { fn a(&self); fn b(&self) { x(); } }\n");
        let mut items = Items::default();
        collect_items(&trees, false, &mut items);
        assert_eq!(items.fns.len(), 2);
        assert!(items.find_fn("a").unwrap().body.is_none());
        assert!(items.find_fn("b").unwrap().body.is_some());
    }
}
