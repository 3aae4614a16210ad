//! Community-dictionary miner for Kepler.
//!
//! Paper §3.2: operators document their BGP community schemes in free-form
//! text (IRR remarks, support web pages). Kepler compiles a machine-readable
//! **community dictionary** from that text through a web-mining pipeline:
//! regex extraction of community values, named-entity recognition of
//! locations/IXPs/facilities, part-of-speech heuristics to keep *inbound*
//! (passive-voice, "received/learned at …") communities and drop *outbound*
//! (active-voice, "announce/block …") traffic-engineering ones, and
//! geocoding with 10 km clustering to unify identifier styles ("New York
//! City" vs "NYC" vs "JFK").
//!
//! In this reproduction the NLTK/Stanford-NER stack is substituted with a
//! gazetteer-based recognizer over names from the colocation map (the same
//! trick the paper borrows from Banerjee et al.: match capitalized words
//! against PeeringDB/Euro-IX organization names). The corpus itself is
//! rendered from ground-truth schemes by [`corpus`], with realistic noise,
//! so the miner's precision/recall is measurable.
//!
//! * [`scheme`] — ground-truth community schemes (what operators mean).
//! * [`corpus`] — renders schemes into noisy IRR/web documentation.
//! * [`extract`] — community-value extraction from raw text.
//! * [`ner`] — gazetteer named-entity recognition.
//! * [`pos`] — passive/active verb-voice classification.
//! * [`dictionary`] — the mined [`dictionary::CommunityDictionary`].
//! * [`attrition`] — cross-epoch dictionary comparison (paper's 2008-vs-2016
//!   attrition study).
//!
//! # Invariants
//!
//! * **Inbound-only**: the dictionary maps communities that encode where
//!   a route was *received* ([`LocationTag`]); outbound
//!   traffic-engineering values are dropped by the verb-voice classifier
//!   ([`pos`]) — a wrong direction would turn every operator action into
//!   a phantom outage signal.
//! * **Measurable against truth**: the corpus is rendered from
//!   ground-truth schemes with realistic noise, so miner precision and
//!   recall are computable ([`dictionary::validate`]), not asserted.
//! * The miner never invents tags: every dictionary entry traces back to
//!   a gazetteer/colocation-map entity that actually exists.

#![forbid(unsafe_code)]

pub mod attrition;
pub mod corpus;
pub mod dictionary;
pub mod extract;
pub mod ner;
pub mod pos;
pub mod scheme;

pub use dictionary::{CommunityDictionary, DictEntry, DictionaryStats, LocationTag};
pub use scheme::{CommunityScheme, DocStyle, SchemeEntry, SchemeTarget};
