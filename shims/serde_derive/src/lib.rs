//! Derive macros for the vendored `serde` stand-in.
//!
//! The build environment has no crates.io access, so `syn`/`quote` are not
//! available; instead the item definition is parsed directly off the
//! `proc_macro` token stream and the generated impls are assembled as source
//! text. Supported shapes cover everything this workspace derives on:
//!
//! * unit / newtype / tuple / named-field structs,
//! * enums with unit, tuple and struct variants,
//! * generic parameters with inline trait bounds (re-emitted verbatim, plus
//!   `Serialize`/`Deserialize` bounds added in a `where` clause).
//!
//! `#[serde(...)]` attributes are not supported (none exist in this
//! workspace) and are rejected loudly rather than silently ignored.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The derive half of `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

/// The derive half of `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Copy, Clone, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    match parse_item(input) {
        Ok(item) => {
            let code = match mode {
                Mode::Serialize => gen_serialize(&item),
                Mode::Deserialize => gen_deserialize(&item),
            };
            code.parse().expect("generated impl parses")
        }
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

// ---------------------------------------------------------------------------
// Item model
// ---------------------------------------------------------------------------

struct Item {
    name: String,
    /// Generic parameter list as written, without the angle brackets
    /// (e.g. `T: Eq + Hash + Copy, M: Eq + Hash + Copy`); empty if none.
    generics_decl: String,
    /// Just the parameter names (e.g. `T, M`); empty if none.
    generics_use: String,
    body: Body,
}

enum Body {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

impl Item {
    /// `<T: Eq + Hash, M: ...>` or empty.
    fn decl(&self) -> String {
        if self.generics_decl.is_empty() {
            String::new()
        } else {
            format!("<{}>", self.generics_decl)
        }
    }

    /// `<T, M>` or empty.
    fn args(&self) -> String {
        if self.generics_use.is_empty() {
            String::new()
        } else {
            format!("<{}>", self.generics_use)
        }
    }

    /// `where T: Bound, M: Bound` or empty.
    fn bounds(&self, bound: &str) -> String {
        if self.generics_use.is_empty() {
            return String::new();
        }
        let clauses: Vec<String> =
            self.generics_use.split(',').map(|p| format!("{}: {bound}", p.trim())).collect();
        format!("where {}", clauses.join(", "))
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attributes(&tokens, &mut i)?;
    skip_visibility(&tokens, &mut i);

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" || id.to_string() == "enum" => {
            i += 1;
            tokens[i - 1].to_string()
        }
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };

    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => {
            i += 1;
            id.to_string()
        }
        other => return Err(format!("expected item name, found {other:?}")),
    };

    let (generics_decl, generics_use) = parse_generics(&tokens, &mut i)?;

    // Skip a `where` clause if present (none in this workspace, but cheap to
    // tolerate): everything up to the body group / semicolon.
    if matches!(tokens.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "where") {
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => break,
                TokenTree::Punct(p) if p.as_char() == ';' => break,
                _ => i += 1,
            }
        }
    }

    let body = if kind == "struct" {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::Unit,
            other => return Err(format!("unexpected struct body: {other:?}")),
        }
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream())?)
            }
            other => return Err(format!("expected enum body, found {other:?}")),
        }
    };

    Ok(Item { name, generics_decl, generics_use, body })
}

fn skip_attributes(tokens: &[TokenTree], i: &mut usize) -> Result<(), String> {
    while let Some(TokenTree::Punct(p)) = tokens.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
            let text = g.stream().to_string();
            if text.starts_with("serde") {
                return Err(format!("#[serde(...)] attributes are not supported: {text}"));
            }
            *i += 2;
        } else {
            return Err("malformed attribute".into());
        }
    }
    Ok(())
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Parses `<...>` after the item name. Returns (decl-with-bounds, names).
fn parse_generics(tokens: &[TokenTree], i: &mut usize) -> Result<(String, String), String> {
    if !matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Ok((String::new(), String::new()));
    }
    *i += 1;
    let mut depth = 1usize;
    let mut inner: Vec<TokenTree> = Vec::new();
    while *i < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                inner.push(tokens[*i].clone());
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                if depth == 0 {
                    *i += 1;
                    break;
                }
                inner.push(tokens[*i].clone());
            }
            t => inner.push(t.clone()),
        }
        *i += 1;
    }
    if depth != 0 {
        return Err("unbalanced generics".into());
    }

    // Split the inner tokens on top-level commas; the first identifier of
    // each chunk (skipping lifetimes and `const`) is the parameter name.
    let mut names: Vec<String> = Vec::new();
    let mut chunk_start = true;
    let mut chunk_depth = 0usize;
    let mut j = 0;
    while j < inner.len() {
        match &inner[j] {
            TokenTree::Punct(p) if p.as_char() == '<' => chunk_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                chunk_depth = chunk_depth.saturating_sub(1)
            }
            TokenTree::Punct(p) if p.as_char() == ',' && chunk_depth == 0 => chunk_start = true,
            TokenTree::Punct(p) if p.as_char() == '\'' && chunk_start => {
                return Err("lifetime parameters are not supported by the serde stand-in".into());
            }
            TokenTree::Ident(id) if chunk_start => {
                let s = id.to_string();
                if s == "const" {
                    return Err("const generics are not supported by the serde stand-in".into());
                }
                names.push(s);
                chunk_start = false;
            }
            _ => {}
        }
        j += 1;
    }

    let decl = render_tokens(&inner);
    Ok((decl, names.join(", ")))
}

/// Renders tokens back to source text with spaces (good enough to re-parse).
fn render_tokens(tokens: &[TokenTree]) -> String {
    let stream: TokenStream = tokens.iter().cloned().collect();
    stream.to_string()
}

/// Parses `a: T, pub b: U, ...` and returns the field names in order.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i)?;
        if i >= tokens.len() {
            break;
        }
        skip_visibility(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field `{name}`, found {other:?}")),
        }
        names.push(name);
        skip_to_top_level_comma(&tokens, &mut i);
    }
    Ok(names)
}

/// Counts top-level comma-separated entries (tuple-struct / tuple-variant
/// fields). Trailing commas do not create an extra entry.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut i = 0;
    loop {
        skip_to_top_level_comma(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        count += 1;
    }
    // A trailing comma leaves an empty final entry; detect it by checking the
    // last token.
    if matches!(tokens.last(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
        count -= 1;
    }
    count
}

/// Advances past type tokens up to (and past) the next comma that is not
/// inside angle brackets. `->` is treated as a single arrow (its `>` does not
/// close a bracket).
fn skip_to_top_level_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut depth = 0usize;
    let mut prev_dash = false;
    while *i < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) => {
                let c = p.as_char();
                if c == '<' {
                    depth += 1;
                } else if c == '>' && !prev_dash {
                    depth = depth.saturating_sub(1);
                } else if c == ',' && depth == 0 {
                    *i += 1;
                    return;
                }
                prev_dash = c == '-';
            }
            _ => prev_dash = false,
        }
        *i += 1;
    }
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i)?;
        if i >= tokens.len() {
            break;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantShape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Named(parse_named_fields(g.stream())?)
            }
            _ => VariantShape::Unit,
        };
        // Skip an explicit discriminant (`= expr`) and the separating comma.
        skip_to_top_level_comma(&tokens, &mut i);
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------
// ---------------------------------------------------------------------------

/// A Rust string literal holding `name` quoted as JSON, built at expansion
/// time: `"\"name\""`. Identifiers need no JSON escape.
fn quoted(name: &str) -> String {
    format!("{:?}", format!("\"{name}\""))
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Unit => "__w.null();".to_string(),
        Body::Tuple(1) => "::serde::Serialize::serialize(&self.0, __w);".to_string(),
        Body::Tuple(n) => {
            let fields: Vec<String> = (0..*n).map(|k| format!("&self.{k}")).collect();
            ser_array(&fields)
        }
        Body::Named(fields) => {
            let values: Vec<String> = fields.iter().map(|f| format!("&self.{f}")).collect();
            ser_object(fields, &values)
        }
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    let (pattern, inner) = match &v.shape {
                        VariantShape::Unit => {
                            return format!("{name}::{vname} => __w.str({vname:?}),");
                        }
                        VariantShape::Tuple(1) => (
                            "(__f0)".to_string(),
                            "::serde::Serialize::serialize(__f0, __w);".to_string(),
                        ),
                        VariantShape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                            (format!("({})", binds.join(", ")), ser_array(&binds))
                        }
                        VariantShape::Named(fields) => {
                            (format!(" {{ {} }}", fields.join(", ")), ser_object(fields, fields))
                        }
                    };
                    format!(
                        "{name}::{vname}{pattern} => {{ __w.begin_object(); __w.key(true, {key}); {inner} __w.end_object(false); }}",
                        key = quoted(vname)
                    )
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all)]\n\
         impl {decl} ::serde::Serialize for {name}{args} {bounds} {{\n\
             fn serialize(&self, __w: &mut ::serde::Writer) {{ {body} }}\n\
         }}",
        decl = item.decl(),
        args = item.args(),
        bounds = item.bounds("::serde::Serialize"),
    )
}

/// Writes the `values` (expressions of references) as an array.
fn ser_array(values: &[String]) -> String {
    let items: String = values
        .iter()
        .enumerate()
        .map(|(k, v)| format!("__w.element({}); ::serde::Serialize::serialize({v}, __w);", k == 0))
        .collect();
    format!("__w.begin_array(); {items} __w.end_array({});", values.is_empty())
}

/// Writes an object of `fields`, each field's value the matching
/// expression of `values`, with each key a literal.
fn ser_object(fields: &[String], values: &[String]) -> String {
    let entries: String = fields
        .iter()
        .zip(values)
        .enumerate()
        .map(|(k, (f, v))| {
            format!("__w.key({}, {}); ::serde::Serialize::serialize({v}, __w);", k == 0, quoted(f))
        })
        .collect();
    format!("__w.begin_object(); {entries} __w.end_object({});", fields.is_empty())
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Unit => format!(
            "match __v.token() {{ ::serde::Token::Null => Ok({name}), _ => Err(::serde::DeError::expected(\"null\", __v)) }}"
        ),
        Body::Tuple(1) => format!("Ok({name}(::serde::Deserialize::deserialize(__v)?))"),
        Body::Tuple(n) => de_tuple(name, *n, "__v"),
        Body::Named(fields) => de_named_fields(name, fields, "__v"),
        Body::Enum(variants) => {
            let unknown = format!(
                "__other => Err(::serde::DeError(format!(\"unknown variant `{{__other}}` of {name}\"))),"
            );
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.shape, VariantShape::Unit))
                .map(|v| format!("{vn:?} => Ok({name}::{vn}),", vn = v.name))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vname = &v.name;
                    let path = format!("{name}::{vname}");
                    let body = match &v.shape {
                        VariantShape::Unit => return None,
                        VariantShape::Tuple(1) => {
                            format!("Ok({path}(::serde::Deserialize::deserialize(__inner)?))")
                        }
                        VariantShape::Tuple(n) => de_tuple(&path, *n, "__inner"),
                        VariantShape::Named(fields) => de_named_fields(&path, fields, "__inner"),
                    };
                    Some(format!("{vname:?} => {{ {body} }}"))
                })
                .collect();
            let unit_arm = if unit_arms.is_empty() {
                String::new()
            } else {
                format!("Some((__tag, None)) => match __tag {{ {} {unknown} }},", unit_arms.join(" "))
            };
            let data_arm = if data_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "Some((__tag, Some(__inner))) => match __tag {{ {} {unknown} }},",
                    data_arms.join(" ")
                )
            };
            format!(
                "match __v.variant() {{\n\
                     {unit_arm}\n\
                     {data_arm}\n\
                     _ => Err(::serde::DeError::expected(\"{name} variant\", __v)),\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all)]\n\
         impl {decl} ::serde::Deserialize for {name}{args} {bounds} {{\n\
             fn deserialize(__v: ::serde::Node<'_, '_>) -> Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}",
        decl = item.decl(),
        args = item.args(),
        bounds = item.bounds("::serde::Deserialize"),
    )
}

/// `Ctor(...)` from an array of exactly `n` elements at `src`.
fn de_tuple(ctor: &str, n: usize, src: &str) -> String {
    let binds: Vec<String> = (0..n).map(|k| format!("__e{k}")).collect();
    let items: Vec<String> =
        binds.iter().map(|b| format!("::serde::Deserialize::deserialize({b})?")).collect();
    format!(
        "let [{binds}] = {src}.array_of::<{n}>().ok_or_else(|| ::serde::DeError::expected(\"array of length {n}\", {src}))?;\n\
         Ok({ctor}({items}))",
        binds = binds.join(", "),
        items = items.join(", ")
    )
}

/// `Ctor { f: ..., ... }` from the object at `src`, its fields read by name.
fn de_named_fields(ctor: &str, fields: &[String], src: &str) -> String {
    if fields.is_empty() {
        return format!("{src}.object()?; Ok({ctor} {{}})");
    }
    let inits: Vec<String> = fields
        .iter()
        .map(|f| format!("{f}: ::serde::Deserialize::deserialize(__fields.field({f:?})?)?"))
        .collect();
    format!("let mut __fields = {src}.object()?; Ok({ctor} {{ {} }})", inits.join(", "))
}
