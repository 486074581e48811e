use realm_baselines::catalog::table2_designs;
use realm_core::multiplier::MultiplierExt;
use realm_core::Accurate;
use realm_jpeg::{psnr, Image, JpegCodec};

fn main() {
    let images = Image::table2_set();
    print!("{:<12}", "image");
    print!("{:>10}", "Accurate");
    let designs = table2_designs();
    for d in &designs {
        print!("{:>18}", d.label());
    }
    println!();
    for (name, img) in &images {
        print!("{:<12}", name);
        let acc = JpegCodec::quality50(Accurate::new(16));
        print!("{:>10.1}", psnr(img, &acc.roundtrip(img)));
        for d in &designs {
            let codec = JpegCodec::quality50(d.as_ref());
            print!("{:>18.1}", psnr(img, &codec.roundtrip(img)));
        }
        println!();
    }
}
