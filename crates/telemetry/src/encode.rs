//! The telemetry codec, generated from one declaration.
//!
//! `event.rs` declares every record and vocabulary once, through the
//! [`schema!`] and [`vocabulary!`] macros below. From that declaration
//! they generate the structs and the `TelemetryEvent` enum, `time()`,
//! the tree codec (`to_json` / `from_json`), the streaming encoder
//! (`write_json`) and the `Trace` accessors. Keys are written in
//! declaration order, after `"type"`.
//!
//! How one field type is written, built into a tree and read back lives
//! once, in its [`Field`] impl. The number and string rules themselves
//! are `amoeba_json`'s `push_*` helpers, which its `Value` printer
//! shares, so `write_json`'s bytes equal `to_json().compact()`.
//! `write_json` is a straight chain of `push_*` calls into the caller's
//! buffer: no `Value` tree, and no `String` per key or per number.
//! `to_json` stays as the tree form `from_json` decodes, and as the
//! encoder's test oracle.

use amoeba_json::{push_escaped, push_f64, push_u64, Value};
use amoeba_sim::SimTime;

use crate::event::DecodeError;

/// One field type's JSON rules.
pub(crate) trait Field: Sized {
    /// The JSON key of a field named `name`.
    fn key(name: &'static str) -> &'static str {
        name
    }

    /// Append the value's JSON text.
    fn write(&self, out: &mut Vec<u8>);

    /// The value as a tree node.
    fn value(&self) -> Value;

    /// Read the value from `v`, the member named `key` (`Null` when it
    /// is absent).
    fn read(v: &Value, key: &str) -> Result<Self, DecodeError>;
}

pub(crate) fn missing(what: &str, key: &str) -> DecodeError {
    DecodeError::new(format!("missing {what} '{key}'"))
}

/// A time is written in whole microseconds, under the key `t_us`.
impl Field for SimTime {
    fn key(_: &'static str) -> &'static str {
        "t_us"
    }

    fn write(&self, out: &mut Vec<u8>) {
        push_u64(out, self.as_micros());
    }

    fn value(&self) -> Value {
        self.as_micros().into()
    }

    fn read(v: &Value, key: &str) -> Result<Self, DecodeError> {
        u64::read(v, key).map(SimTime::from_micros)
    }
}

impl Field for f64 {
    fn write(&self, out: &mut Vec<u8>) {
        push_f64(out, *self);
    }

    fn value(&self) -> Value {
        (*self).into()
    }

    fn read(v: &Value, key: &str) -> Result<Self, DecodeError> {
        v.as_f64().ok_or_else(|| missing("number", key))
    }
}

impl Field for u64 {
    fn write(&self, out: &mut Vec<u8>) {
        push_u64(out, *self);
    }

    fn value(&self) -> Value {
        (*self).into()
    }

    fn read(v: &Value, key: &str) -> Result<Self, DecodeError> {
        v.as_u64().ok_or_else(|| missing("integer", key))
    }
}

/// Narrower integers: written as `u64`, and read back only when the
/// value fits.
macro_rules! narrow_int {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write(&self, out: &mut Vec<u8>) {
                push_u64(out, *self as u64);
            }

            fn value(&self) -> Value {
                (*self).into()
            }

            fn read(v: &Value, key: &str) -> Result<Self, DecodeError> {
                <$t>::try_from(u64::read(v, key)?)
                    .map_err(|_| DecodeError::new(format!("'{key}' out of range")))
            }
        }
    )*};
}
narrow_int!(usize, u32);

impl Field for bool {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }

    fn value(&self) -> Value {
        (*self).into()
    }

    fn read(v: &Value, key: &str) -> Result<Self, DecodeError> {
        v.as_bool().ok_or_else(|| missing("bool", key))
    }
}

/// A user-supplied string, escaped.
impl Field for String {
    fn write(&self, out: &mut Vec<u8>) {
        push_escaped(out, self);
    }

    fn value(&self) -> Value {
        self.as_str().into()
    }

    fn read(v: &Value, key: &str) -> Result<Self, DecodeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| missing("string", key))
    }
}

/// `None` is written as `null`, and a missing or unreadable entry reads
/// as `None`.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Some(x) => x.write(out),
            None => out.extend_from_slice(b"null"),
        }
    }

    fn value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Field::value)
    }

    fn read(v: &Value, key: &str) -> Result<Self, DecodeError> {
        Ok(T::read(v, key).ok())
    }
}

/// `[a,b,…]`, each element under its type's rules.
fn push_list<T: Field>(out: &mut Vec<u8>, items: &[T]) {
    out.push(b'[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        x.write(out);
    }
    out.push(b']');
}

fn list_value<T: Field>(items: &[T]) -> Value {
    Value::Array(items.iter().map(Field::value).collect())
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut Vec<u8>) {
        push_list(out, self);
    }

    fn value(&self) -> Value {
        list_value(self)
    }

    fn read(v: &Value, key: &str) -> Result<Self, DecodeError> {
        v.as_array()
            .ok_or_else(|| missing("array", key))?
            .iter()
            .map(|x| T::read(x, key))
            .collect()
    }
}

/// A list of exactly `N` entries.
impl<T: Field, const N: usize> Field for [T; N] {
    fn write(&self, out: &mut Vec<u8>) {
        push_list(out, self);
    }

    fn value(&self) -> Value {
        list_value(self)
    }

    fn read(v: &Value, key: &str) -> Result<Self, DecodeError> {
        Vec::<T>::read(v, key)?
            .try_into()
            .map_err(|_| DecodeError::new(format!("'{key}' must have {N} entries")))
    }
}

/// Append `,"key":value`. Every object's first byte is then patched
/// from `,` to `{` by [`push_object`].
pub(crate) fn push_member<T: Field>(out: &mut Vec<u8>, name: &'static str, x: &T) {
    out.extend_from_slice(b",\"");
    out.extend_from_slice(T::key(name).as_bytes());
    out.extend_from_slice(b"\":");
    x.write(out);
}

/// Append one object whose members `members` writes with
/// [`push_member`] (at least one).
pub(crate) fn push_object(out: &mut Vec<u8>, members: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    members(out);
    out[start] = b'{';
    out.push(b'}');
}

/// The tree form of one member.
pub(crate) fn member_value<T: Field>(name: &'static str, x: &T) -> (String, Value) {
    (T::key(name).to_string(), x.value())
}

/// Read the member for a field named `name` out of object `v`.
pub(crate) fn member<T: Field>(v: &Value, name: &'static str) -> Result<T, DecodeError> {
    let key = T::key(name);
    T::read(v.get(key), key)
}

/// Declare each closed vocabulary once, as `Variant = "tag"` pairs:
/// generates the enum, `tag`/`from_tag` and its [`Field`] impl (the tag
/// as a JSON string).
macro_rules! vocabulary {
    ($(
        $(#[$meta:meta])*
        pub enum $Enum:ident {
            $( $(#[$vmeta:meta])* $V:ident = $tag:literal, )*
        }
    )*) => {$(
        $(#[$meta])*
        pub enum $Enum {
            $( $(#[$vmeta])* $V, )*
        }

        const _: () = {
            use $crate::encode::{missing, Field};
            use $crate::event::DecodeError;
            use amoeba_json::Value;

            impl $Enum {
                pub(crate) fn tag(self) -> &'static str {
                    match self {
                        $( $Enum::$V => $tag, )*
                    }
                }

                pub(crate) fn from_tag(s: &str) -> Result<Self, DecodeError> {
                    match s {
                        $( $tag => Ok($Enum::$V), )*
                        _ => Err(DecodeError::new(format!("unknown {} '{s}'", stringify!($Enum)))),
                    }
                }
            }

            /// A tag is a fixed lower-case identifier, which needs no
            /// escaping.
            impl Field for $Enum {
                fn write(&self, out: &mut Vec<u8>) {
                    out.push(b'"');
                    out.extend_from_slice(self.tag().as_bytes());
                    out.push(b'"');
                }

                fn value(&self) -> Value {
                    self.tag().into()
                }

                fn read(v: &Value, key: &str) -> Result<Self, DecodeError> {
                    Self::from_tag(v.as_str().ok_or_else(|| missing("string", key))?)
                }
            }
        };
    )*};
}
pub(crate) use vocabulary;

/// Declare the event stream once: the object nested in the run header,
/// then `TelemetryEvent` with its header variant and, per record, the
/// variant, its JSON `type` tag, its `Trace` accessor (if it has one)
/// and its struct. Every record's struct has a `t: SimTime` field.
macro_rules! schema {
    (
        $(#[$ometa:meta])*
        pub struct $Obj:ident {
            $( $(#[$ofmeta:meta])* pub $of:ident: $ofty:ty, )*
        }

        $(#[$emeta:meta])*
        pub enum TelemetryEvent {
            $(#[$hmeta:meta])*
            $H:ident = $htag:literal {
                $( $(#[$hfmeta:meta])* $hf:ident: $hfty:ty, )*
            }

            $(
                $(#[$vmeta:meta])*
                $V:ident = $tag:literal $(, Trace::$acc:ident)?;
                $(#[$smeta:meta])*
                pub struct $Rec:ident {
                    $( $(#[$fmeta:meta])* pub $f:ident: $fty:ty, )*
                }
            )*
        }
    ) => {
        $(#[$ometa])*
        pub struct $Obj {
            $( $(#[$ofmeta])* pub $of: $ofty, )*
        }

        $(
            $(#[$smeta])*
            pub struct $Rec {
                $( $(#[$fmeta])* pub $f: $fty, )*
            }
        )*

        $(#[$emeta])*
        pub enum TelemetryEvent {
            $(#[$hmeta])*
            $H {
                $( $(#[$hfmeta])* $hf: $hfty, )*
            },
            $( $(#[$vmeta])* $V($Rec), )*
        }

        const _: () = {
            use $crate::encode::{member, member_value, push_member, push_object, Field};
            use $crate::event::DecodeError;
            use amoeba_json::Value;
            use amoeba_sim::SimTime;

            impl Field for $Obj {
                fn write(&self, out: &mut Vec<u8>) {
                    let $Obj { $($of),* } = self;
                    push_object(out, |out| {
                        $( push_member(out, stringify!($of), $of); )*
                    });
                }

                fn value(&self) -> Value {
                    let $Obj { $($of),* } = self;
                    Value::Object(vec![$( member_value(stringify!($of), $of), )*])
                }

                fn read(v: &Value, _: &str) -> Result<Self, DecodeError> {
                    Ok($Obj { $( $of: member(v, stringify!($of))?, )* })
                }
            }

            impl TelemetryEvent {
                /// Encode as one JSON object tree: the form
                /// [`TelemetryEvent::from_json`] decodes, and the test
                /// oracle of [`TelemetryEvent::write_json`], whose bytes
                /// equal this tree's `compact()` rendering.
                pub fn to_json(&self) -> Value {
                    let type_member = |tag: &str| ("type".to_string(), Value::from(tag));
                    Value::Object(match self {
                        TelemetryEvent::$H { $($hf),* } => vec![
                            type_member($htag),
                            $( member_value(stringify!($hf), $hf), )*
                        ],
                        $(
                            TelemetryEvent::$V($Rec { $($f),* }) => vec![
                                type_member($tag),
                                $( member_value(stringify!($f), $f), )*
                            ],
                        )*
                    })
                }

                /// Decode one JSON-lines object.
                pub fn from_json(v: &Value) -> Result<Self, DecodeError> {
                    Ok(match member::<String>(v, "type")?.as_str() {
                        $htag => TelemetryEvent::$H { $( $hf: member(v, stringify!($hf))?, )* },
                        $(
                            $tag => TelemetryEvent::$V($Rec {
                                $( $f: member(v, stringify!($f))?, )*
                            }),
                        )*
                        other => {
                            return Err(DecodeError::new(format!("unknown event type '{other}'")))
                        }
                    })
                }

                /// Append this event as one compact JSON object (no
                /// newline) to `out`. The bytes equal
                /// `self.to_json().compact()`; this is the form
                /// [`Trace::to_jsonl`](crate::Trace::to_jsonl) and
                /// digesting sinks write, into a buffer they reuse across
                /// events.
                pub fn write_json(&self, out: &mut Vec<u8>) {
                    push_object(out, |out| match self {
                        TelemetryEvent::$H { $($hf),* } => {
                            out.extend_from_slice(concat!(",\"type\":\"", $htag, "\"").as_bytes());
                            $( push_member(out, stringify!($hf), $hf); )*
                        }
                        $(
                            TelemetryEvent::$V($Rec { $($f),* }) => {
                                out.extend_from_slice(concat!(",\"type\":\"", $tag, "\"").as_bytes());
                                $( push_member(out, stringify!($f), $f); )*
                            }
                        )*
                    });
                }

                /// The event's timestamp (run headers read as t=0).
                pub fn time(&self) -> SimTime {
                    match self {
                        TelemetryEvent::$H { .. } => SimTime::ZERO,
                        $( TelemetryEvent::$V(r) => r.t, )*
                    }
                }
            }

            impl $crate::trace::Trace {
                $($(
                    #[doc = concat!("The [`", stringify!($Rec), "`]s, in order.")]
                    pub fn $acc(&self) -> impl Iterator<Item = &$Rec> {
                        self.events().iter().filter_map(|e| match e {
                            TelemetryEvent::$V(r) => Some(r),
                            _ => None,
                        })
                    }
                )?)*
            }
        };
    };
}
pub(crate) use schema;
