//! This workspace's `serde_derive`: derive macros that expand to nothing.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
