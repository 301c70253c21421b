/* Raw copies between a Bigarray chunk and an OCaml bytes value.
 *
 * The OCaml wrappers in bigstore.ml validate slot handles and byte
 * ranges before calling in; these stubs are straight memcpy
 * over the pinned Bigarray data. All arguments are immediates or
 * naked pointers, so the stubs neither allocate nor release the
 * runtime lock ([@@noalloc] on the OCaml side).
 */

#include <string.h>

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

CAMLprim value iron_ba_blit_to_bytes(value vba, value voff, value vbuf,
                                     value vdst, value vlen)
{
  memcpy(Bytes_val(vbuf) + Long_val(vdst),
         (char *)Caml_ba_data_val(vba) + Long_val(voff), Long_val(vlen));
  return Val_unit;
}

CAMLprim value iron_ba_blit_of_bytes(value vbuf, value vsrc, value vba,
                                     value voff, value vlen)
{
  memcpy((char *)Caml_ba_data_val(vba) + Long_val(voff),
         Bytes_val(vbuf) + Long_val(vsrc), Long_val(vlen));
  return Val_unit;
}
